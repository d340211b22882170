#include "engine/sql/lexer.h"

#include <gtest/gtest.h>

namespace tip::engine {
namespace {

std::vector<Token> MustLex(std::string_view sql) {
  Result<std::vector<Token>> tokens = Lex(sql);
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  return tokens.ok() ? *tokens : std::vector<Token>{};
}

TEST(LexerTest, EmptyInput) {
  auto tokens = MustLex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEnd);
}

TEST(LexerTest, IdentifiersAndKeywordsUndistinguished) {
  auto tokens = MustLex("SELECT foo _bar x1");
  ASSERT_EQ(tokens.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tokens[static_cast<size_t>(i)].kind, TokenKind::kIdentifier);
  }
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[2].text, "_bar");
}

TEST(LexerTest, Numbers) {
  auto tokens = MustLex("1 12.5 .5 1e3 2E-2 7");
  EXPECT_EQ(tokens[0].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[1].kind, TokenKind::kFloat);
  EXPECT_EQ(tokens[2].kind, TokenKind::kFloat);
  EXPECT_EQ(tokens[3].kind, TokenKind::kFloat);
  EXPECT_EQ(tokens[4].kind, TokenKind::kFloat);
  EXPECT_EQ(tokens[5].kind, TokenKind::kInteger);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = MustLex("'hello' 'it''s' ''");
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].text, "it's");
  EXPECT_EQ(tokens[2].text, "");
  EXPECT_FALSE(Lex("'unterminated").ok());
}

TEST(LexerTest, OperatorsIncludingMultiChar) {
  auto tokens = MustLex(":: <> != <= >= || < > = + - * / ( ) , . ; :");
  EXPECT_EQ(tokens[0].text, "::");
  EXPECT_EQ(tokens[1].text, "<>");
  EXPECT_EQ(tokens[2].text, "<>");  // != canonicalizes
  EXPECT_EQ(tokens[3].text, "<=");
  EXPECT_EQ(tokens[4].text, ">=");
  EXPECT_EQ(tokens[5].text, "||");
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kEnd) break;
    EXPECT_EQ(t.kind, TokenKind::kOperator);
  }
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = MustLex("SELECT -- comment here\n 1");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "1");
}

TEST(LexerTest, MinusVsCommentDisambiguation) {
  auto tokens = MustLex("1 - 2");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].text, "-");
}

TEST(LexerTest, OffsetsPointAtTokenStart) {
  auto tokens = MustLex("ab  cd");
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 4u);
}

TEST(LexerTest, RejectsUnknownCharacters) {
  EXPECT_FALSE(Lex("SELECT #").ok());
  EXPECT_FALSE(Lex("a @ b").ok());
}

TEST(LexerTest, ParamSyntaxTokenizes) {
  auto tokens = MustLex(":w");
  EXPECT_EQ(tokens[0].text, ":");
  EXPECT_EQ(tokens[1].text, "w");
}

TEST(LexerTest, SplitStatementsAtSemicolonTokens) {
  const ScriptStatements split = SplitStatements(
      "SELECT 'a;b'; -- c; 'd\n;; SELECT 2 ;\nINSERT INTO t VALUES ('x;\n");
  ASSERT_EQ(split.complete.size(), 2u);
  EXPECT_EQ(split.complete[0], "SELECT 'a;b'");
  EXPECT_EQ(split.complete[1], "SELECT 2");
  // An unfinished statement (here, inside an open string) is the rest,
  // which an interactive shell keeps until more input arrives.
  EXPECT_EQ(split.rest, "INSERT INTO t VALUES ('x;\n");
  const ScriptStatements blank = SplitStatements("-- only a comment\n;");
  EXPECT_TRUE(blank.complete.empty());
  EXPECT_TRUE(blank.rest.empty());
}

}  // namespace
}  // namespace tip::engine
