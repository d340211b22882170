#ifndef TIP_ENGINE_SQL_LEXER_H_
#define TIP_ENGINE_SQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tip::engine {

enum class TokenKind {
  kIdentifier,   // table, column, routine and keyword words
  kString,       // 'quoted literal' (with '' escaping)
  kInteger,      // 123
  kFloat,        // 1.5, .5, 1e3
  kOperator,     // + - * / = <> != < <= > >= || . , ( ) ; :: :
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;   // normalized: identifiers keep original case,
                      // strings are unescaped, operators canonical
  size_t offset = 0;  // byte offset in the statement (error messages)
};

/// Splits a SQL statement into tokens. Comments (`-- ...` to end of
/// line) are skipped. Keywords are not distinguished from identifiers at
/// this level; the parser matches them case-insensitively.
Result<std::vector<Token>> Lex(std::string_view sql);

/// A script cut into statements at its `;` tokens, so a `;` inside a
/// string literal or a comment never ends a statement. Views into the
/// script.
struct ScriptStatements {
  /// Each `;`-terminated statement, from its first token to its last
  /// (the `;` excluded). Chunks with no tokens (`;;`, a comment) are
  /// skipped.
  std::vector<std::string_view> complete;
  /// The text from the first token after the last `;` to the end of the
  /// script; empty when no token follows. A script runs it as its final
  /// statement; an interactive shell waits for more input.
  std::string_view rest;
};

/// Splits `script` with the rules of Lex. Never fails: a lexing error
/// is left for the statement's own parse to report, and an
/// unterminated string literal runs to the end of the script.
ScriptStatements SplitStatements(std::string_view script);

}  // namespace tip::engine

#endif  // TIP_ENGINE_SQL_LEXER_H_
