// tipsql: an interactive SQL shell for a TIP-enabled database.
//
//   ./build/examples/tipsql            empty database, DataBlade installed
//   ./build/examples/tipsql --demo     preloaded synthetic medical data
//   echo "SELECT 1+1;" | ./build/examples/tipsql
//
// Statements end with ';' and may span lines. Shell commands:
//   \d            list tables
//   \d NAME       describe one table
//   \timing       toggle per-statement timing
//   \save FILE    write a binary snapshot of the whole database
//   \load FILE    restore a snapshot (into an empty database)
//   \q            quit
//
// `SET NOW '1999-11-15'` / `SET NOW DEFAULT` control the transaction
// time, `EXPLAIN SELECT ...` shows plans, `SET interval_join off`
// toggles the optimizer. TSQL2-style sequenced queries (`VALIDTIME
// SELECT ...`, `VALIDTIME AS OF '...' SELECT ...`, `NONSEQUENCED
// VALIDTIME ...`) are translated to TIP SQL on the fly; the shell
// echoes the translation.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "client/connection.h"
#include "engine/sql/lexer.h"
#include "engine/storage/snapshot.h"
#include "tsql2/translator.h"
#include "workload/medical.h"

namespace {

void ListTables(tip::client::Connection& conn) {
  for (const std::string& name :
       conn.database().catalog().TableNames()) {
    std::printf("  %s\n", name.c_str());
  }
}

void DescribeTable(tip::client::Connection& conn,
                   const std::string& name) {
  tip::Result<tip::engine::Table*> table =
      conn.database().catalog().GetTable(name);
  if (!table.ok()) {
    std::printf("%s\n", table.status().ToString().c_str());
    return;
  }
  std::printf("table %s:\n", (*table)->name().c_str());
  for (const tip::engine::Column& col : (*table)->columns()) {
    std::printf("  %-16s %s\n", col.name.c_str(),
                conn.database().types().Get(col.type).name.c_str());
  }
  for (const tip::engine::IntervalIndexDef& index :
       (*table)->interval_indexes()) {
    std::printf("  index %s ON (%s) USING interval\n",
                index.name.c_str(),
                (*table)->columns()[index.column].name.c_str());
  }
}

bool HandleShellCommand(tip::client::Connection& conn,
                        const std::string& line, bool* timing) {
  if (line == "\\q" || line == "\\quit") return false;
  if (line == "\\d") {
    ListTables(conn);
  } else if (line.rfind("\\d ", 0) == 0) {
    DescribeTable(conn, line.substr(3));
  } else if (line == "\\timing") {
    *timing = !*timing;
    std::printf("timing %s\n", *timing ? "on" : "off");
  } else if (line.rfind("\\save ", 0) == 0) {
    tip::Status s = tip::engine::SaveSnapshotToFile(conn.database(),
                                                    line.substr(6));
    std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
  } else if (line.rfind("\\load ", 0) == 0) {
    tip::Status s = tip::engine::LoadSnapshotFromFile(&conn.database(),
                                                      line.substr(6));
    std::printf("%s\n", s.ok() ? "loaded" : s.ToString().c_str());
  } else {
    std::printf("unknown command %s (try \\d, \\timing, \\q)\n",
                line.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  tip::Result<std::unique_ptr<tip::client::Connection>> conn_or =
      tip::client::Connection::Open();
  if (!conn_or.ok()) {
    std::fprintf(stderr, "open: %s\n", conn_or.status().ToString().c_str());
    return 1;
  }
  tip::client::Connection& conn = **conn_or;

  if (argc > 1 && std::strcmp(argv[1], "--demo") == 0) {
    conn.SetNow(*tip::Chronon::Parse("1999-11-15"));
    tip::workload::MedicalConfig config;
    config.rows = 1000;
    tip::Result<std::vector<tip::workload::PrescriptionRow>> rows =
        tip::workload::SetUpPrescriptionTable(
            &conn.database(), conn.tip_types(), config, "prescription");
    if (!rows.ok()) {
      std::fprintf(stderr, "demo load: %s\n",
                   rows.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded 1000 demo rows into `prescription`; "
                "NOW = 1999-11-15\n");
  }

  const bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf("tipsql — TIP temporal SQL shell. \\q quits, \\d lists "
                "tables.\n");
  }

  bool timing = false;
  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) {
      std::printf(buffer.empty() ? "tip> " : "...> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    // Shell commands act on a whole line, outside any pending statement.
    if (buffer.empty() && !line.empty() && line[0] == '\\') {
      if (!HandleShellCommand(conn, line, &timing)) break;
      continue;
    }
    buffer += line;
    buffer += '\n';
    // Execute each ';'-terminated statement in the buffer; an unfinished
    // one waits for more lines.
    const tip::engine::ScriptStatements split =
        tip::engine::SplitStatements(buffer);
    for (std::string_view text : split.complete) {
      std::string statement(text);
      // TSQL2 layer: sequenced statements translate to TIP SQL first.
      if (tip::tsql2::IsTemporalStatement(statement)) {
        tip::Result<std::string> translated =
            tip::tsql2::Translate(statement);
        if (!translated.ok()) {
          std::printf("%s\n", translated.status().ToString().c_str());
          continue;
        }
        std::printf("-- translated: %s\n", translated->c_str());
        statement = *translated;
      }
      auto start = std::chrono::steady_clock::now();
      tip::Result<tip::client::ResultSet> result =
          conn.Execute(statement);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (!result.ok()) {
        std::printf("%s\n", result.status().ToString().c_str());
        continue;
      }
      std::printf("%s", result->ToTable().c_str());
      if (timing) std::printf("(%.3f ms)\n", ms);
    }
    buffer = std::string(split.rest);
  }
  return 0;
}
