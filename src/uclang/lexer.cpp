#include "uclang/lexer.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

namespace uc::lang {

Lexer::Lexer(const support::SourceFile& file, support::DiagnosticEngine& diags)
    : file_(file), diags_(diags), text_(file.text()) {}

char Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  char c = text_[pos_++];
  at_line_start_ = c == '\n';
  return c;
}

bool Lexer::match(char c) {
  if (peek() == c) {
    advance();
    return true;
  }
  return false;
}

void Lexer::skip_whitespace_and_comments() {
  for (;;) {
    char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (!at_end() && peek() != '\n') advance();
    } else if (c == '/' && peek(1) == '*') {
      skip_block_comment();
      if (at_end()) return;
    } else {
      return;
    }
  }
}

bool Lexer::skip_block_comment() {
  auto begin = loc();
  advance();
  advance();
  bool newline = false;
  while (!at_end() && !(peek() == '*' && peek(1) == '/')) {
    newline = advance() == '\n' || newline;
  }
  if (at_end()) {
    diags_.error({begin, loc()}, "unterminated block comment");
    return newline;
  }
  advance();
  advance();
  return newline;
}

Token Lexer::make(TokenKind kind, support::SourceLoc begin) {
  Token t;
  t.kind = kind;
  t.range = {begin, loc()};
  t.text = std::string(text_.substr(begin.offset, loc().offset - begin.offset));
  return t;
}

Token Lexer::lex_number(support::SourceLoc begin) {
  bool is_float = false;
  while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
  // '..' is the range token, so only treat '.' as a fraction when it is not
  // followed by another '.'.
  if (peek() == '.' && peek(1) != '.') {
    is_float = true;
    advance();
    while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
  }
  if (peek() == 'e' || peek() == 'E') {
    std::size_t save = pos_;
    advance();
    if (peek() == '+' || peek() == '-') advance();
    if (std::isdigit(static_cast<unsigned char>(peek()))) {
      is_float = true;
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    } else {
      pos_ = save;  // not an exponent after all
    }
  }
  auto t = make(is_float ? TokenKind::kFloatLit : TokenKind::kIntLit, begin);
  if (is_float) {
    // strtod turns an overflowing exponent into ±inf, which would silently
    // poison every arithmetic result downstream; make it a compile error
    // like the integer case below.  (Underflow to 0.0 stays legal.)
    t.float_value = std::strtod(t.text.c_str(), nullptr);
    if (!std::isfinite(t.float_value)) {
      diags_.error(t.range, "float literal '" + t.text +
                                "' is out of range for a double");
      t.float_value = 0.0;
    }
  } else {
    // strtoll saturates to LLONG_MAX on overflow, which would silently
    // change the program's constants; make it a compile error instead.
    errno = 0;
    char* end = nullptr;
    t.int_value = std::strtoll(t.text.c_str(), &end, 10);
    if (errno == ERANGE || end == t.text.c_str() || *end != '\0') {
      diags_.error(t.range, "integer literal '" + t.text +
                                "' does not fit in a 64-bit int");
      t.int_value = 0;
    }
  }
  return t;
}

Token Lexer::lex_ident_or_keyword(support::SourceLoc begin) {
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
    advance();
  }
  auto t = make(TokenKind::kIdent, begin);
  // The paper spells the keyword `index-set`; accept that exact spelling in
  // addition to the C-friendly `index_set`.
  if (t.text == "index" && peek() == '-' &&
      text_.substr(pos_ + 1, 3) == "set" &&
      !(std::isalnum(static_cast<unsigned char>(peek(4))) || peek(4) == '_')) {
    advance();  // '-'
    advance();  // 's'
    advance();  // 'e'
    advance();  // 't'
    t = make(TokenKind::kKwIndexSet, begin);
    return t;
  }
  t.kind = classify_keyword(t.text);
  return t;
}

Token Lexer::lex_char_literal(support::SourceLoc begin) {
  // Opening quote already consumed.
  std::int64_t value = 0;
  if (peek() == '\\') {
    advance();
    char esc = advance();
    switch (esc) {
      case 'n': value = '\n'; break;
      case 't': value = '\t'; break;
      case '0': value = '\0'; break;
      case '\\': value = '\\'; break;
      case '\'': value = '\''; break;
      default:
        diags_.error({begin, loc()}, "unknown escape in char literal");
        value = esc;
    }
  } else if (!at_end()) {
    value = advance();
  }
  if (!match('\'')) {
    diags_.error({begin, loc()}, "unterminated char literal");
  }
  auto t = make(TokenKind::kCharLit, begin);
  t.int_value = value;
  return t;
}

Token Lexer::lex_string_literal(support::SourceLoc begin) {
  std::string value;
  while (!at_end() && peek() != '"') {
    if (peek() == '\\') {
      advance();
      char esc = advance();
      switch (esc) {
        case 'n': value += '\n'; break;
        case 't': value += '\t'; break;
        case '\\': value += '\\'; break;
        case '"': value += '"'; break;
        default: value += esc;
      }
    } else {
      value += advance();
    }
  }
  if (!match('"')) {
    diags_.error({begin, loc()}, "unterminated string literal");
  }
  auto t = make(TokenKind::kStringLit, begin);
  t.text = value;  // payload, not spelling
  return t;
}

Token Lexer::lex_dollar(support::SourceLoc begin) {
  // $+ $* $&& (or $&) $|| (or $|) $^ $> $< $,
  switch (peek()) {
    case '+': advance(); return make(TokenKind::kRedAdd, begin);
    case '*': advance(); return make(TokenKind::kRedMul, begin);
    case '^': advance(); return make(TokenKind::kRedXor, begin);
    case '>': advance(); return make(TokenKind::kRedMax, begin);
    case '<': advance(); return make(TokenKind::kRedMin, begin);
    case ',': advance(); return make(TokenKind::kRedArb, begin);
    case '&':
      advance();
      match('&');
      return make(TokenKind::kRedAnd, begin);
    case '|':
      advance();
      match('|');
      return make(TokenKind::kRedOr, begin);
    default:
      diags_.error({begin, loc()},
                   "expected a reduction operator after '$' "
                   "(one of + * && || ^ > < ,)");
      return make(TokenKind::kRedAdd, begin);
  }
}

void Lexer::handle_directive() {
  // We are just past '#'.  Only `#define NAME tokens...` is supported.
  auto begin = loc();
  skip_whitespace_and_comments();
  std::string word;
  while (std::isalpha(static_cast<unsigned char>(peek()))) word += advance();
  if (word != "define") {
    diags_.error({begin, loc()},
                 "unsupported preprocessor directive '#" + word +
                     "' (only object-like #define is supported)");
    while (!at_end() && peek() != '\n') advance();
    return;
  }
  while (peek() == ' ' || peek() == '\t') advance();
  auto name_begin = loc();
  std::string name;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
    name += advance();
  }
  if (name.empty()) {
    diags_.error({name_begin, loc()}, "#define requires a macro name");
    while (!at_end() && peek() != '\n') advance();
    return;
  }
  if (peek() == '(') {
    diags_.error({name_begin, loc()},
                 "function-like macros are not supported");
    while (!at_end() && peek() != '\n') advance();
    return;
  }
  // Lex the replacement tokens up to end of line.
  std::vector<Token> replacement;
  for (;;) {
    while (peek() == ' ' || peek() == '\t') advance();
    if (at_end() || peek() == '\n') break;
    // A comment is not part of the replacement, and must not take the
    // newline that ends the directive with it: a line comment runs to the
    // newline, and a block comment that runs past the line ends the macro.
    if (peek() == '/' && peek(1) == '/') {
      while (!at_end() && peek() != '\n') advance();
      break;
    }
    if (peek() == '/' && peek(1) == '*') {
      if (skip_block_comment()) break;
      continue;
    }
    replacement.push_back(next_raw());
    if (replacement.back().kind == TokenKind::kEof) {
      replacement.pop_back();
      break;
    }
  }
  macros_[name] = std::move(replacement);
}

Token Lexer::next_raw() {
  skip_whitespace_and_comments();
  auto begin = loc();
  if (at_end()) return make(TokenKind::kEof, begin);
  char c = advance();
  switch (c) {
    case '(': return make(TokenKind::kLParen, begin);
    case ')': return make(TokenKind::kRParen, begin);
    case '{': return make(TokenKind::kLBrace, begin);
    case '}': return make(TokenKind::kRBrace, begin);
    case '[': return make(TokenKind::kLBracket, begin);
    case ']': return make(TokenKind::kRBracket, begin);
    case ',': return make(TokenKind::kComma, begin);
    case ';': return make(TokenKind::kSemi, begin);
    case '?': return make(TokenKind::kQuestion, begin);
    case '~': return make(TokenKind::kTilde, begin);
    case ':':
      if (match('-')) return make(TokenKind::kMapsTo, begin);
      return make(TokenKind::kColon, begin);
    case '.':
      if (match('.')) return make(TokenKind::kDotDot, begin);
      diags_.error({begin, loc()}, "stray '.'");
      return next_raw();
    case '+':
      if (match('+')) return make(TokenKind::kPlusPlus, begin);
      if (match('=')) return make(TokenKind::kPlusAssign, begin);
      return make(TokenKind::kPlus, begin);
    case '-':
      if (match('-')) return make(TokenKind::kMinusMinus, begin);
      if (match('=')) return make(TokenKind::kMinusAssign, begin);
      return make(TokenKind::kMinus, begin);
    case '*':
      if (match('=')) return make(TokenKind::kStarAssign, begin);
      return make(TokenKind::kStar, begin);
    case '/':
      if (match('=')) return make(TokenKind::kSlashAssign, begin);
      return make(TokenKind::kSlash, begin);
    case '%':
      if (match('=')) return make(TokenKind::kPercentAssign, begin);
      return make(TokenKind::kPercent, begin);
    case '=':
      if (match('=')) return make(TokenKind::kEq, begin);
      return make(TokenKind::kAssign, begin);
    case '!':
      if (match('=')) return make(TokenKind::kNe, begin);
      return make(TokenKind::kBang, begin);
    case '<':
      if (match('=')) return make(TokenKind::kLe, begin);
      if (match('<')) return make(TokenKind::kShl, begin);
      return make(TokenKind::kLt, begin);
    case '>':
      if (match('=')) return make(TokenKind::kGe, begin);
      if (match('>')) return make(TokenKind::kShr, begin);
      return make(TokenKind::kGt, begin);
    case '&':
      if (match('&')) return make(TokenKind::kAmpAmp, begin);
      return make(TokenKind::kAmp, begin);
    case '|':
      if (match('|')) return make(TokenKind::kPipePipe, begin);
      return make(TokenKind::kPipe, begin);
    case '^': return make(TokenKind::kCaret, begin);
    case '$': return lex_dollar(begin);
    case '\'': return lex_char_literal(begin);
    case '"': return lex_string_literal(begin);
    default:
      if (std::isdigit(static_cast<unsigned char>(c))) {
        return lex_number(begin);
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        return lex_ident_or_keyword(begin);
      }
      diags_.error({begin, loc()},
                   std::string("unexpected character '") + c + "'");
      return next_raw();
  }
}

std::vector<Token> Lexer::lex_all() {
  std::vector<Token> out;
  std::unordered_set<std::string> expanding;  // macro recursion guard

  // Expands a token, substituting macros; appends to out.
  auto expand = [&](const Token& t, auto&& self) -> void {
    if (t.kind == TokenKind::kIdent) {
      auto it = macros_.find(t.text);
      if (it != macros_.end() && !expanding.contains(t.text)) {
        expanding.insert(t.text);
        for (const auto& rep : it->second) {
          Token r = rep;
          r.range = t.range;  // report at the use site
          self(r, self);
        }
        expanding.erase(t.text);
        return;
      }
    }
    out.push_back(t);
  };

  // True when only spaces/tabs separate pos_ from the previous newline.
  auto at_logical_line_start = [&] {
    std::size_t i = pos_;
    while (i > 0) {
      char c = text_[i - 1];
      if (c == '\n') return true;
      if (c != ' ' && c != '\t') return false;
      --i;
    }
    return true;  // beginning of file
  };

  for (;;) {
    // Preprocessor directives must start a line (possibly after spaces).
    for (;;) {
      skip_whitespace_and_comments();
      if (peek() == '#' && at_logical_line_start()) {
        advance();  // '#'
        handle_directive();
        continue;
      }
      break;
    }
    Token t = next_raw();
    if (t.kind == TokenKind::kEof) {
      out.push_back(t);
      return out;
    }
    expand(t, expand);
  }
}

}  // namespace uc::lang
