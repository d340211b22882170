#include "engine/sql/lexer.h"

#include <cctype>

namespace tip::engine {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentCont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Offset of the first token at or after `i`: skips whitespace and
// `--` line comments.
size_t SkipBlank(std::string_view sql, size_t i) {
  const size_t n = sql.size();
  while (i < n) {
    if (std::isspace(static_cast<unsigned char>(sql[i]))) {
      ++i;
    } else if (sql[i] == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
    } else {
      break;
    }
  }
  return i;
}

// Appends the token that starts at sql[i] to *tokens; returns the
// offset just past it.
Result<size_t> ScanToken(std::string_view sql, size_t i,
                         std::vector<Token>* tokens) {
  const size_t n = sql.size();
  const char c = sql[i];
  const size_t start = i;
  // Identifier / keyword.
  if (IsIdentStart(c)) {
    size_t j = i + 1;
    while (j < n && IsIdentCont(sql[j])) ++j;
    tokens->push_back(
        {TokenKind::kIdentifier, std::string(sql.substr(i, j - i)), start});
    return j;
  }
  // Number: digits, optional fraction/exponent; also ".5".
  if (std::isdigit(static_cast<unsigned char>(c)) ||
      (c == '.' && i + 1 < n &&
       std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
    size_t j = i;
    bool is_float = false;
    while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
    if (j < n && sql[j] == '.') {
      is_float = true;
      ++j;
      while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
    }
    if (j < n && (sql[j] == 'e' || sql[j] == 'E')) {
      size_t k = j + 1;
      if (k < n && (sql[k] == '+' || sql[k] == '-')) ++k;
      if (k < n && std::isdigit(static_cast<unsigned char>(sql[k]))) {
        is_float = true;
        j = k;
        while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) {
          ++j;
        }
      }
    }
    tokens->push_back({is_float ? TokenKind::kFloat : TokenKind::kInteger,
                       std::string(sql.substr(i, j - i)), start});
    return j;
  }
  // String literal with '' escaping.
  if (c == '\'') {
    std::string value;
    size_t j = i + 1;
    bool closed = false;
    while (j < n) {
      if (sql[j] == '\'') {
        if (j + 1 < n && sql[j + 1] == '\'') {
          value.push_back('\'');
          j += 2;
          continue;
        }
        closed = true;
        ++j;
        break;
      }
      value.push_back(sql[j]);
      ++j;
    }
    if (!closed) {
      return Status::ParseError("unterminated string literal at offset " +
                                std::to_string(start));
    }
    tokens->push_back({TokenKind::kString, std::move(value), start});
    return j;
  }
  // Multi-character operators first.
  auto two = (i + 1 < n) ? sql.substr(i, 2) : std::string_view();
  if (two == "::" || two == "<>" || two == "!=" || two == "<=" ||
      two == ">=" || two == "||") {
    std::string text(two);
    if (text == "!=") text = "<>";  // canonicalize
    tokens->push_back({TokenKind::kOperator, std::move(text), start});
    return i + 2;
  }
  switch (c) {
    case '+':
    case '-':
    case '*':
    case '/':
    case '=':
    case '<':
    case '>':
    case '(':
    case ')':
    case ',':
    case '.':
    case ';':
    case ':':
      tokens->push_back({TokenKind::kOperator, std::string(1, c), start});
      return i + 1;
    default:
      return Status::ParseError("unexpected character '" +
                                std::string(1, c) + "' at offset " +
                                std::to_string(start));
  }
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view sql) {
  std::vector<Token> tokens;
  for (size_t i = SkipBlank(sql, 0); i < sql.size(); i = SkipBlank(sql, i)) {
    TIP_ASSIGN_OR_RETURN(i, ScanToken(sql, i, &tokens));
  }
  tokens.push_back({TokenKind::kEnd, "", sql.size()});
  return tokens;
}

ScriptStatements SplitStatements(std::string_view script) {
  ScriptStatements split;
  size_t first = 0;    // offset of the current statement's first token
  size_t end = 0;      // offset just past its last token so far
  bool open = false;   // whether the current statement has a token yet
  std::vector<Token> token;  // holds the one token just scanned
  for (size_t i = SkipBlank(script, 0); i < script.size();
       i = SkipBlank(script, i)) {
    token.clear();
    Result<size_t> next = ScanToken(script, i, &token);
    if (!next.ok()) {
      // Left for the statement's own parse to report: an unterminated
      // string runs to the end of the script, any other bad character
      // is stepped over.
      next = script[i] == '\'' ? script.size() : i + 1;
    } else if (token[0].kind == TokenKind::kOperator && token[0].text == ";") {
      if (open) split.complete.push_back(script.substr(first, end - first));
      open = false;
      i = *next;
      continue;
    }
    if (!open) first = i;
    open = true;
    end = *next;
    i = *next;
  }
  if (open) split.rest = script.substr(first);
  return split;
}

}  // namespace tip::engine
