#ifndef TIP_CAPI_TIP_C_H_
#define TIP_CAPI_TIP_C_H_

/* The TIP C client library — the paper ships "both C and Java
 * libraries for client applications to access a TIP-enabled database";
 * this is the C one. A connection owns an embedded TIP-enabled engine
 * (tip_open*) or a session on a remote tipd (tip_connect); statements
 * are SQL text; results are addressed by (row, column) with text
 * rendering through each type's output function plus int64/double
 * fast paths for the builtin scalars.
 *
 * Every fallible call returns 0 on success and -1 on failure;
 * tip_last_error() describes the most recent failure on the
 * connection. All handles are single-threaded, with one exception:
 * tip_cancel may be called from any thread to interrupt a blocked
 * tip_exec on the same connection.
 */

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct tip_connection tip_connection;
typedef struct tip_result tip_result;
typedef struct tip_stmt tip_stmt;

/* Opens an embedded database with the TIP DataBlade installed.
 * Returns NULL on failure. */
tip_connection* tip_open(void);

/* Opens a durable database homed in directory `dir` (created if
 * absent) and runs crash recovery: the last checkpoint snapshot is
 * restored and the write-ahead log replayed, with any torn tail
 * truncated. Subsequent statements are logged per `SET wal_mode`
 * (off|async|group|sync; default group). Returns NULL on failure. */
tip_connection* tip_open_dir(const char* dir);

/* As tip_open_dir, but with an explicit corruption policy. `mode` is
 * "strict" (the tip_open_dir behaviour: refuse a damaged directory) or
 * "salvage" (quarantine corrupt tables instead of failing the open;
 * the rest of the database recovers and is readable, quarantined
 * tables answer every statement with a corruption error until they are
 * dropped; tip_verify / the tip_health() builtin report the damage).
 * Returns NULL on failure. */
tip_connection* tip_open_dir_recovery(const char* dir, const char* mode);

/* Connects to a running `tipd` at host:port over the TIP wire protocol.
 * The returned connection is the same kind of handle as an embedded
 * one, and every tip_* call below behaves the same on it, but
 * statements execute in the server process and the session is subject
 * to its admission control, per-session guardrails, and idle/drain
 * policies. NOW overrides and guardrail settings are scoped to this
 * session. Returns NULL on failure (connection refused, handshake
 * error, or an explicit server rejection such as "server at
 * capacity"). */
tip_connection* tip_connect(const char* host, int port);
void tip_close(tip_connection* conn);

/* The message of the last failed call on `conn` ("" if none). The
 * pointer stays valid until the next call on the connection. */
const char* tip_last_error(const tip_connection* conn);

/* Overrides / restores the interpretation of NOW (what-if analysis):
 * `SET NOW '...'` / `SET NOW DEFAULT`. `chronon_literal` uses the
 * paper's notation, e.g. "1999-11-15". Refused (-1) while a
 * transaction is open, since the transaction's NOW is pinned. */
int tip_set_now(tip_connection* conn, const char* chronon_literal);
int tip_clear_now(tip_connection* conn);

/* Requests cancellation of the statement currently executing on the
 * connection (embedded: every statement running on its database).
 * Thread-safe: this is the one call that may target a connection from
 * another thread while tip_exec is blocked on it. The interrupted
 * tip_exec fails with a "cancelled" error and leaves the database
 * unchanged. Does not touch last_error itself. */
int tip_cancel(tip_connection* conn);

/* Statement guardrails for subsequent statements (0 = no limit): a
 * wall-clock timeout and an approximate memory budget. A tripped guard
 * fails the statement with a "deadline exceeded" / "resource
 * exhausted" error without disturbing stored data. */
int tip_set_timeout_ms(tip_connection* conn, long long ms);
int tip_set_memory_limit_kb(tip_connection* conn,
                            unsigned long long kb);

/* Durability controls for a durable database (tip_open_dir, or a tipd
 * serving one).
 *
 * tip_set_wal_mode: `SET wal_mode`, one of "off", "async", "group" or
 * "sync" (works on any connection; takes effect once a durable
 * directory is attached). On a durable database, switching into or out
 * of "off" forces a checkpoint so the log is re-baselined across the
 * unlogged gap; if that checkpoint fails the mode is unchanged and -1
 * is returned. Refused (-1) while a transaction is open.
 * tip_checkpoint: `SELECT tip_checkpoint()`, snapshots the database and
 * truncates the WAL.
 * tip_sync_wal: `SELECT tip_sync_wal()`, forces the group-commit tail
 * to disk (no-op when not durable). */
int tip_set_wal_mode(tip_connection* conn, const char* mode);
int tip_checkpoint(tip_connection* conn);
int tip_sync_wal(tip_connection* conn);

/* Runs an online integrity scrub over every table (recomputing content
 * checksums and cross-checking interval indexes against the heap) plus
 * the on-disk WAL when durable — the C face of `SELECT tip_verify()`.
 * Returns 0 when everything checks out, -1 with tip_last_error
 * describing the damaged objects otherwise. */
int tip_verify(tip_connection* conn);

/* Transaction control: executes BEGIN / COMMIT / ROLLBACK. Statements
 * between tip_begin and tip_commit evaluate under one pinned NOW and
 * are atomic: tip_rollback — or a fatal statement error, or a crash
 * before tip_commit reaches disk — restores the pre-begin state
 * exactly. Auto-commit remains the default. DDL, tip_set_now,
 * tip_clear_now, tip_set_wal_mode and tip_checkpoint are refused while
 * a transaction is open, on either kind of connection.
 * tip_in_transaction returns 1 between begin and commit/rollback, else
 * 0 (-1 on a null connection). */
int tip_begin(tip_connection* conn);
int tip_commit(tip_connection* conn);
int tip_rollback(tip_connection* conn);
int tip_in_transaction(const tip_connection* conn);

/* Executes one SQL statement. On success, `*out` (if out != NULL)
 * receives a result handle the caller frees with tip_result_free;
 * pass NULL to discard the result. */
int tip_exec(tip_connection* conn, const char* sql, tip_result** out);

/* Prepared statements: parse/plan once, execute many. tip_prepare
 * parses `sql` eagerly — a malformed statement fails here (see
 * tip_last_error) with *out set to NULL — and the handle reuses one
 * plan across executions (embedded, the engine's; over tipd, the
 * server's plan cache); tip_stmt_bind_* rebind the `:name` host
 * parameters between executions without replanning. A statement
 * handle belongs to the connection that prepared it and must be closed
 * before that connection. */
int tip_prepare(tip_connection* conn, const char* sql, tip_stmt** out);
int tip_stmt_bind_int(tip_stmt* stmt, const char* name, long long value);
int tip_stmt_bind_double(tip_stmt* stmt, const char* name, double value);
int tip_stmt_bind_text(tip_stmt* stmt, const char* name,
                       const char* value);
int tip_stmt_bind_null(tip_stmt* stmt, const char* name);
/* Removes all bindings from the statement. */
int tip_stmt_clear_bindings(tip_stmt* stmt);
/* Executes with the current bindings; result handling as tip_exec.
 * Errors are reported on the owning connection's tip_last_error. */
int tip_stmt_execute(tip_stmt* stmt, tip_result** out);
void tip_stmt_close(tip_stmt* stmt);

void tip_result_free(tip_result* result);

size_t tip_result_row_count(const tip_result* result);
size_t tip_result_column_count(const tip_result* result);
long long tip_result_affected_rows(const tip_result* result);

/* Column metadata. Returned strings are owned by the result. */
const char* tip_result_column_name(const tip_result* result, size_t col);
const char* tip_result_column_type(const tip_result* result, size_t col);

/* Cell accessors. `tip_result_text` renders any value (including the
 * five TIP types, NOW kept symbolic) through its output function; the
 * string is owned by the result and valid until tip_result_free.
 * Out-of-range indexes yield NULL / 0. */
int tip_result_is_null(const tip_result* result, size_t row, size_t col);
const char* tip_result_text(tip_result* result, size_t row, size_t col);
long long tip_result_int64(const tip_result* result, size_t row,
                           size_t col);
double tip_result_double(const tip_result* result, size_t row, size_t col);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* TIP_CAPI_TIP_C_H_ */
