//! Minimal Rust lexer.
//!
//! Produces a flat token stream with line numbers: identifiers,
//! lifetimes, numeric/string/char literals (contents discarded) and
//! single-character punctuation. Comments are skipped — suppression
//! comments are parsed separately from the raw source
//! ([`crate::parse_allows`]) so the passes never see them.
//!
//! This is deliberately not a full Rust lexer: it only needs to be
//! faithful enough that item boundaries, brace matching and identifier
//! occurrence checks are exact. The subtle cases that would otherwise
//! corrupt brace matching *are* handled: nested block comments, raw
//! strings (`r#"…"#`), byte strings, raw identifiers (`r#type`), char
//! literals vs lifetimes (`'a'` vs `'a`), and numeric literals with
//! exponents and range-adjacent dots (`0..n`).

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `unwrap`, …).
    Ident,
    /// Lifetime (`'a`, `'static`) — text excludes the quote.
    Lifetime,
    /// Numeric literal (text preserved, suffix included).
    Num,
    /// String / byte-string / raw-string literal (text discarded).
    Str,
    /// Char / byte-char literal (text discarded).
    Char,
    /// One character of punctuation (`{`, `<`, `!`, …).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexical class.
    pub kind: TokKind,
    /// Token text (empty for string/char literals).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a token stream. Unterminated constructs consume to
/// end of input rather than erroring: the linter must keep going on
/// fixture files that are deliberately odd.
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! bump_lines {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
            }
        };
    }

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    bump_lines!(b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Identifiers — including literal prefixes (r"", br"", b"", b'')
        // and raw identifiers (r#type).
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            let word: String = b[start..i].iter().collect();
            let next = b.get(i).copied();
            // Raw identifier r#word.
            if word == "r"
                && next == Some('#')
                && b.get(i + 1).copied().map(is_ident_start).unwrap_or(false)
            {
                i += 1; // '#'
                let s2 = i;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::Ident,
                    text: b[s2..i].iter().collect(),
                    line,
                });
                continue;
            }
            // Raw strings r"…", r#"…"#, br#"…"#.
            if (word == "r" || word == "br") && matches!(next, Some('"') | Some('#')) {
                let tok_line = line;
                let mut hashes = 0usize;
                while i < n && b[i] == '#' {
                    hashes += 1;
                    i += 1;
                }
                if i < n && b[i] == '"' {
                    i += 1;
                    'raw: while i < n {
                        if b[i] == '"' {
                            let mut k = 0usize;
                            while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        bump_lines!(b[i]);
                        i += 1;
                    }
                    out.push(Token {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: tok_line,
                    });
                    continue;
                }
                // `r#` that was neither raw ident nor raw string: emit
                // the word and let the '#' lex as punctuation.
            }
            // Byte string b"…" / byte char b'…'.
            if word == "b" && next == Some('"') {
                let tok_line = line;
                i += 1;
                while i < n {
                    if b[i] == '\\' {
                        i += 2;
                        continue;
                    }
                    if b[i] == '"' {
                        i += 1;
                        break;
                    }
                    bump_lines!(b[i]);
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: tok_line,
                });
                continue;
            }
            if word == "b" && next == Some('\'') {
                i += 1; // opening quote
                while i < n {
                    if b[i] == '\\' {
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                continue;
            }
            out.push(Token {
                kind: TokKind::Ident,
                text: word,
                line,
            });
            continue;
        }
        // Strings.
        if c == '"' {
            let tok_line = line;
            i += 1;
            while i < n {
                if b[i] == '\\' {
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    i += 1;
                    break;
                }
                bump_lines!(b[i]);
                i += 1;
            }
            out.push(Token {
                kind: TokKind::Str,
                text: String::new(),
                line: tok_line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = b.get(i + 1).copied();
            match next {
                Some('\\') => {
                    // Escaped char literal.
                    i += 2; // quote + backslash
                    i += 1; // escaped char (good enough for \n, \', \u is ended by the closing quote scan)
                    while i < n && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.push(Token {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                }
                Some(ch) if is_ident_start(ch) => {
                    // 'a' is a char literal; 'a (no closing quote after
                    // the ident run) is a lifetime.
                    let s2 = i + 1;
                    let mut j = s2;
                    while j < n && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    if j < n && b[j] == '\'' {
                        i = j + 1;
                        out.push(Token {
                            kind: TokKind::Char,
                            text: String::new(),
                            line,
                        });
                    } else {
                        let text: String = b[s2..j].iter().collect();
                        i = j;
                        out.push(Token {
                            kind: TokKind::Lifetime,
                            text,
                            line,
                        });
                    }
                }
                Some(_) => {
                    // '0', '[', … — single-char literal.
                    i += 2;
                    while i < n && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.push(Token {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                }
                None => {
                    i += 1;
                }
            }
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < n {
                let ch = b[i];
                if is_ident_continue(ch) {
                    i += 1;
                } else if ch == '.'
                    && b.get(i + 1).copied().map(|d| d.is_ascii_digit()) == Some(true)
                {
                    // 1.5 yes; 0..n no (the second dot is not a digit).
                    i += 1;
                } else if (ch == '+' || ch == '-')
                    && matches!(b.get(i - 1), Some('e') | Some('E'))
                    && !b[start..i].iter().collect::<String>().starts_with("0x")
                {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(Token {
                kind: TokKind::Num,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Everything else: one punctuation character per token.
        out.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_punct() {
        assert_eq!(
            texts("fn foo(x: u64) -> bool { x[0] }"),
            [
                "fn", "foo", "(", "x", ":", "u64", ")", "-", ">", "bool", "{", "x", "[", "0", "]",
                "}"
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = lex("// HashMap in a comment\n/* block\nHashSet */ real");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "real");
        assert_eq!(toks[0].line, 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("<'a> 'x' '\\n' 'static");
        let kinds: Vec<TokKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            [
                TokKind::Punct,
                TokKind::Lifetime,
                TokKind::Punct,
                TokKind::Char,
                TokKind::Char,
                TokKind::Lifetime
            ]
        );
        assert_eq!(toks[1].text, "a");
        assert_eq!(toks[5].text, "static");
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let toks = lex(r####"r#"quote " inside"# r#type b"bytes" br##"x"##"####);
        assert_eq!(toks[0].kind, TokKind::Str);
        assert_eq!(toks[1].text, "type");
        assert_eq!(toks[2].kind, TokKind::Str);
        assert_eq!(toks[3].kind, TokKind::Str);
    }

    #[test]
    fn numbers_with_ranges_and_exponents() {
        assert_eq!(texts("0..n"), ["0", ".", ".", "n"]);
        assert_eq!(texts("1.5e-3"), ["1.5e-3"]);
        assert_eq!(texts("0xcbf2_9ce4"), ["0xcbf2_9ce4"]);
    }

    #[test]
    fn string_contents_do_not_leak_identifiers() {
        let toks = lex(r#"let x = "HashMap::unwrap()";"#);
        assert!(toks
            .iter()
            .all(|t| t.text != "HashMap" && t.text != "unwrap"));
    }
}
