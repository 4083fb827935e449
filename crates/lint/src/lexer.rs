//! A small self-contained Rust lexer.
//!
//! The workspace vendors no parsing crates (no `syn`), so the analyzer works
//! on a token stream this module produces: identifiers, punctuation, string
//! literals, and numeric literals with line numbers. Comments and char
//! literals are stripped so rule patterns can never match inside them; string
//! and numeric literals are *captured* (not dropped) because the item parser
//! must read `#[target_feature(enable = "avx2")]` and `extern "C"`, and the
//! statement parser reads a response's literal HTTP status. Line
//! comments are captured separately because suppression directives
//! (`lint:allow`) and `SAFETY:` justifications live there.
//!
//! The lexer is deliberately approximate where full fidelity is not needed
//! by the rules — the lifetime-vs-char-literal ambiguity after `'` is
//! resolved with the usual two-character lookahead heuristic — but it is
//! exact about nesting, raw-string hash matching, and line tracking, which
//! the rule engine, the item parser, and suppression matching rely on.

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `HashMap`, `partial_cmp`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `(`, `#`, ...).
    Punct(char),
    /// A string literal's contents (plain, raw, or byte), without quotes
    /// and with escapes left unprocessed.
    Str(String),
    /// A numeric literal's source text (`100`, `0.95`, `1.0e-3`, `0xff_u64`).
    Num(String),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

impl Token {
    /// Returns the identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the literal contents, if this is a string literal.
    pub fn str_lit(&self) -> Option<&str> {
        match &self.tok {
            Tok::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the literal source text, if this is a numeric literal.
    pub fn num_lit(&self) -> Option<&str> {
        match &self.tok {
            Tok::Num(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    /// True if this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

/// A `//`-style comment with its text (everything after the `//`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineComment {
    /// 1-based line number the comment starts on.
    pub line: u32,
    /// Comment body, excluding the leading `//` but including any further
    /// leading `/` or `!` (doc comments).
    pub text: String,
}

/// Output of [`lex`]: the token stream plus captured line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Identifier/punctuation/literal stream in source order.
    pub tokens: Vec<Token>,
    /// All `//` comments in source order.
    pub comments: Vec<LineComment>,
}

/// Lexes Rust source into tokens and line comments.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Consumes chars[i..] one char, updating the line counter.
    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start_line = line;
            i += 2;
            let mut text = String::new();
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                i += 1;
            }
            out.comments.push(LineComment {
                line: start_line,
                text,
            });
            continue;
        }
        // Block comment (nesting per Rust semantics). The open/close
        // delimiters contain no newline, so only `bump!` counts lines.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1usize;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    bump!();
                }
            }
            continue;
        }
        // String literal.
        if c == '"' {
            let start_line = line;
            bump!();
            let text = read_string_body(&chars, &mut i, &mut line);
            out.tokens.push(Token {
                tok: Tok::Str(text),
                line: start_line,
            });
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            let is_char_lit = match next {
                Some('\\') => true,
                Some(_) => after == Some('\''),
                None => false,
            };
            if is_char_lit {
                bump!(); // opening quote
                if chars.get(i) == Some(&'\\') {
                    bump!(); // backslash
                    if i < chars.len() {
                        bump!(); // escaped char (u{..} handled by closing scan)
                    }
                }
                while i < chars.len() && chars[i] != '\'' {
                    bump!();
                }
                if i < chars.len() {
                    bump!(); // closing quote
                }
            } else {
                // Lifetime or loop label: skip the quote and the identifier.
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
            }
            continue;
        }
        // Numeric literal: captured as source text.
        if c.is_ascii_digit() {
            let start = i;
            skip_number(&chars, &mut i);
            out.tokens.push(Token {
                tok: Tok::Num(chars[start..i].iter().collect()),
                line,
            });
            continue;
        }
        // Identifier, possibly a raw-string / byte-string prefix.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            match text.as_str() {
                "r" | "br" if matches!(chars.get(i), Some(&'"') | Some(&'#')) => {
                    if chars.get(i) == Some(&'#')
                        && chars
                            .get(i + 1)
                            .is_some_and(|&n| is_ident_start(n) && text == "r")
                    {
                        // Raw identifier `r#name`.
                        i += 1;
                        let rstart = i;
                        while i < chars.len() && is_ident_continue(chars[i]) {
                            i += 1;
                        }
                        let raw: String = chars[rstart..i].iter().collect();
                        out.tokens.push(Token {
                            tok: Tok::Ident(raw),
                            line,
                        });
                    } else {
                        // `r"…"` / `r#"…"#` / `br#"…"#`. If the `#`s are not
                        // followed by a quote this is not a raw string after
                        // all: rewind and emit the prefix as a plain ident so
                        // the `#`s lex as punctuation (mis-consuming them
                        // could mask real code that follows).
                        let save = i;
                        let start_line = line;
                        match read_raw_string(&chars, &mut i, &mut line) {
                            Some(body) => out.tokens.push(Token {
                                tok: Tok::Str(body),
                                line: start_line,
                            }),
                            None => {
                                i = save;
                                out.tokens.push(Token {
                                    tok: Tok::Ident(text),
                                    line,
                                });
                            }
                        }
                    }
                }
                "b" if chars.get(i) == Some(&'"') => {
                    let start_line = line;
                    i += 1;
                    let body = read_string_body(&chars, &mut i, &mut line);
                    out.tokens.push(Token {
                        tok: Tok::Str(body),
                        line: start_line,
                    });
                }
                "b" if chars.get(i) == Some(&'\'') => {
                    // Byte char literal, e.g. b'x' or b'\n'.
                    i += 1; // opening quote
                    if chars.get(i) == Some(&'\\') {
                        i += 1;
                        if i < chars.len() {
                            i += 1;
                        }
                    }
                    while i < chars.len() && chars[i] != '\'' {
                        bump!();
                    }
                    if i < chars.len() {
                        i += 1;
                    }
                }
                _ => out.tokens.push(Token {
                    tok: Tok::Ident(text),
                    line,
                }),
            }
            continue;
        }
        out.tokens.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Reads a (non-raw) string body; `i` points just past the opening quote.
/// Returns the contents with escape sequences left as written.
fn read_string_body(chars: &[char], i: &mut usize, line: &mut u32) -> String {
    let mut body = String::new();
    while *i < chars.len() {
        match chars[*i] {
            '\\' => {
                body.push(chars[*i]);
                *i += 1;
                if *i < chars.len() {
                    if chars[*i] == '\n' {
                        *line += 1;
                    }
                    body.push(chars[*i]);
                    *i += 1;
                }
            }
            '"' => {
                *i += 1;
                return body;
            }
            c => {
                if c == '\n' {
                    *line += 1;
                }
                body.push(c);
                *i += 1;
            }
        }
    }
    body
}

/// Reads a raw string; `i` points at the first `#` or `"` after `r`/`br`.
/// Returns `None` (with `i`/`line` possibly advanced — caller must rewind)
/// when the hashes are not followed by an opening quote, i.e. this was not
/// a raw string. An unterminated raw string consumes to EOF, matching how
/// rustc would treat the rest of the file.
fn read_raw_string(chars: &[char], i: &mut usize, line: &mut u32) -> Option<String> {
    let mut hashes = 0usize;
    while chars.get(*i) == Some(&'#') {
        hashes += 1;
        *i += 1;
    }
    if chars.get(*i) != Some(&'"') {
        return None; // Not actually a raw string.
    }
    *i += 1;
    let mut body = String::new();
    while *i < chars.len() {
        if chars[*i] == '"' {
            let mut matched = 0usize;
            while matched < hashes && chars.get(*i + 1 + matched) == Some(&'#') {
                matched += 1;
            }
            if matched == hashes {
                *i += 1 + hashes;
                return Some(body);
            }
        }
        if chars[*i] == '\n' {
            *line += 1;
        }
        body.push(chars[*i]);
        *i += 1;
    }
    Some(body)
}

/// Skips a numeric literal starting at a digit.
fn skip_number(chars: &[char], i: &mut usize) {
    let mut prev = '0';
    while *i < chars.len() {
        let c = chars[*i];
        let continues = c.is_ascii_alphanumeric()
            || c == '_'
            || (c == '.' && chars.get(*i + 1).is_some_and(|n| n.is_ascii_digit()))
            || ((c == '+' || c == '-')
                && (prev == 'e' || prev == 'E')
                && chars.get(*i + 1).is_some_and(|n| n.is_ascii_digit()));
        if !continues {
            break;
        }
        prev = c;
        *i += 1;
    }
}

/// Parses a captured numeric literal's text into an `f64`: underscores are
/// dropped, a trailing type suffix (`u64`, `f32`, `usize`, ...) is stripped,
/// and hex/octal/binary literals are decoded. Returns `None` for text no
/// rule needs to understand numerically.
pub fn parse_num(text: &str) -> Option<f64> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    let body = [
        "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
        "f32", "f64",
    ]
    .iter()
    .find_map(|suf| clean.strip_suffix(suf))
    .unwrap_or(&clean);
    if body.is_empty() {
        return None;
    }
    if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16).ok().map(|v| v as f64);
    }
    if let Some(oct) = body.strip_prefix("0o").or_else(|| body.strip_prefix("0O")) {
        return i64::from_str_radix(oct, 8).ok().map(|v| v as f64);
    }
    if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        return i64::from_str_radix(bin, 2).ok().map(|v| v as f64);
    }
    body.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    fn strs(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.str_lit().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strips_strings_and_comments() {
        let src = r##"
// thread_rng in a comment
/* thread_rng in /* a nested */ block */
let s = "thread_rng in a string";
let r = r#"thread_rng in a raw string"#;
let c = 'x';
let ok = real_ident;
"##;
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(ids.contains(&"real_ident".to_string()));
    }

    #[test]
    fn string_contents_are_captured_not_dropped() {
        let src = r##"let a = "shared_buffers_mb"; let b = r#"raw_knob"#; let c = b"bytes";"##;
        assert_eq!(strs(src), vec!["shared_buffers_mb", "raw_knob", "bytes"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'q'; x }";
        let ids = idents(src);
        // The char literal body 'q' must not appear; the code after it must.
        assert!(!ids.contains(&"q".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"first\nsecond\";\nlet marker = 1;";
        let lexed = lex(src);
        let marker = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("marker"))
            .expect("marker token present");
        assert_eq!(marker.line, 3);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "let a = 1; // note one\n// note two\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].text.trim(), "note one");
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn numbers_and_ranges_lex_cleanly() {
        let src = "let x = 1.0e-3; for i in 0..10 { let y = 0xff_u64; }";
        let lexed = lex(src);
        // Two dots of the range survive as punctuation.
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("for")));
        let nums: Vec<&str> = lexed.tokens.iter().filter_map(|t| t.num_lit()).collect();
        assert_eq!(nums, vec!["1.0e-3", "0", "10", "0xff_u64"]);
    }

    #[test]
    fn byte_and_raw_literals() {
        let src = "let a = b\"bytes thread_rng\"; let b = br#\"raw thread_rng\"#; let c = b'z'; let k = r#fn;";
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(ids.contains(&"fn".to_string()));
    }

    // -- regression tests: raw strings and nested comments must not
    // mis-mask the code that follows them --

    #[test]
    fn zero_hash_raw_string_closes_at_first_quote() {
        // r"..\" — raw strings have no escapes, so the backslash does NOT
        // extend the literal; `after_raw` is live code.
        let src = r#"let s = r"a\"; let after_raw = 1;"#;
        let ids = idents(src);
        assert!(ids.contains(&"after_raw".to_string()));
        assert_eq!(strs(src), vec!["a\\"]);
    }

    #[test]
    fn raw_string_embedded_quote_hash_needs_full_match() {
        // The "# inside the body has fewer hashes than the opener, so the
        // literal runs to "## and `tail_code` is live.
        let src = r###"let s = r##"body "# still body"##; let tail_code = 1;"###;
        let ids = idents(src);
        assert!(ids.contains(&"tail_code".to_string()));
        assert_eq!(strs(src), vec![r##"body "# still body"##]);
    }

    #[test]
    fn false_raw_prefix_keeps_following_tokens() {
        // `r` then `#` with no quote is not a raw string; previously the
        // lexer silently swallowed the hash(es), here `r` stays an ident and
        // the attribute-ish tokens after it survive.
        let src = "let r = r ; #[cfg(test)] mod m {}";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("cfg")));
        assert!(lexed.tokens.iter().any(|t| t.is_punct('#')));
        // Degenerate `br#!` (not a raw ident, not a raw string): the prefix
        // must not eat the punctuation after it.
        let src2 = "br#!x";
        let lexed2 = lex(src2);
        assert!(lexed2.tokens.iter().any(|t| t.is_punct('#')));
        assert!(lexed2.tokens.iter().any(|t| t.is_punct('!')));
    }

    #[test]
    fn nested_block_comment_exposes_trailing_code() {
        let src = "/* a /* b */ c */ let live_after = 2; /*/ odd */ let more = 3;";
        let ids = idents(src);
        assert!(ids.contains(&"live_after".to_string()));
        assert!(ids.contains(&"more".to_string()));
    }

    #[test]
    fn multiline_raw_string_and_comment_track_lines() {
        let src = "let a = r#\"l1\nl2\nl3\"#;\n/* c1\nc2 */ let marker = 1;";
        let lexed = lex(src);
        let marker = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("marker"))
            .expect("marker token present");
        assert_eq!(marker.line, 5);
    }

    #[test]
    fn unterminated_constructs_consume_to_eof_without_panic() {
        for src in [
            "/* never closed",
            "let s = r#\"never closed",
            "let s = \"open",
        ] {
            let lexed = lex(src);
            // No panic, and nothing after the construct is fabricated.
            assert!(lexed.tokens.len() < 16, "src {src:?}");
        }
    }

    #[test]
    fn parse_num_handles_suffixes_and_radices() {
        assert_eq!(parse_num("100"), Some(100.0));
        assert_eq!(parse_num("1_000"), Some(1000.0));
        assert_eq!(parse_num("0.95"), Some(0.95));
        assert_eq!(parse_num("1.0e-3"), Some(0.001));
        assert_eq!(parse_num("0xff_u64"), Some(255.0));
        assert_eq!(parse_num("0b101"), Some(5.0));
        assert_eq!(parse_num("64i64"), Some(64.0));
        assert_eq!(parse_num("2048usize"), Some(2048.0));
        assert_eq!(parse_num("abc"), None);
    }
}
