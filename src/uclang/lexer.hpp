// Hand-written lexer for UC, including a miniature preprocessor that
// handles object-like `#define NAME replacement` macros (the paper's
// programs use `#define N 32`).  Macro substitution is token-based and
// recursive with cycle protection.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "support/diag.hpp"
#include "support/source.hpp"
#include "uclang/token.hpp"

namespace uc::lang {

class Lexer {
 public:
  Lexer(const support::SourceFile& file, support::DiagnosticEngine& diags);

  // Lexes the whole buffer, expanding #define macros; the result always
  // ends with an kEof token.  Lexical errors are reported to the
  // diagnostic engine and the offending characters skipped.
  std::vector<Token> lex_all();

 private:
  Token next_raw();  // one token, no macro handling
  void skip_whitespace_and_comments();
  // Skips the block comment starting at the cursor ("/*"); returns whether
  // it spanned a newline.
  bool skip_block_comment();
  Token make(TokenKind kind, support::SourceLoc begin);
  Token lex_number(support::SourceLoc begin);
  Token lex_ident_or_keyword(support::SourceLoc begin);
  Token lex_char_literal(support::SourceLoc begin);
  Token lex_string_literal(support::SourceLoc begin);
  Token lex_dollar(support::SourceLoc begin);
  void handle_directive();  // after a '#' at start of line

  char peek(std::size_t ahead = 0) const;
  char advance();
  bool match(char c);
  bool at_end() const { return pos_ >= text_.size(); }
  support::SourceLoc loc() const {
    return {static_cast<std::uint32_t>(pos_)};
  }

  const support::SourceFile& file_;
  support::DiagnosticEngine& diags_;
  std::string_view text_;
  std::size_t pos_ = 0;
  bool at_line_start_ = true;
  std::unordered_map<std::string, std::vector<Token>> macros_;
};

}  // namespace uc::lang
