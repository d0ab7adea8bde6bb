//! Item-level Rust parser.
//!
//! Walks a lexed token stream and extracts exactly what the
//! `byzantine-panic` pass needs: every function, free or inside an
//! `impl` block, with its body kept as a token *range* into the file's
//! stream, never an AST. Functions inside `#[cfg(test)]` modules or
//! marked `#[test]` are recorded but marked, so the pass can skip
//! test-only code (panics are fine in tests; shipped protocol code is
//! what the lint protects).
//!
//! Deliberately skipped: `trait` definitions (default bodies are not
//! hostile-input surface here), `macro_rules!` bodies (token soup), and
//! type definitions.

use crate::lexer::{TokKind, Token};
use std::ops::Range;

/// A function item (free or inside an impl block).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Token range of the body, *excluding* the outer braces.
    pub body: Range<usize>,
    /// True when declared inside `#[cfg(test)]` code or marked `#[test]`.
    pub in_test: bool,
}

/// Everything the parser extracted from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function items.
    pub fns: Vec<FnDef>,
}

/// Parses a token stream into items.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut p = Parser {
        toks: tokens,
        i: 0,
        out: &mut out,
    };
    p.items(false);
    out
}

struct Parser<'a, 'b> {
    toks: &'a [Token],
    i: usize,
    out: &'b mut ParsedFile,
}

/// What the attributes directly before an item said.
#[derive(Default, Clone, Copy)]
struct Attrs {
    cfg_test: bool,
    test: bool,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.toks.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().map(|t| t.is_ident(s)).unwrap_or(false)
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().map(|t| t.is_punct(c)).unwrap_or(false)
    }

    /// Skips one balanced group opened by the delimiter at the cursor.
    fn skip_balanced(&mut self, open: char, close: char) {
        debug_assert!(self.at_punct(open));
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips a generic parameter/argument list at `<`. Handles `->`
    /// inside (`F: Fn() -> T`) by ignoring a `>` preceded by `-`.
    fn skip_angles(&mut self) {
        debug_assert!(self.at_punct('<'));
        let mut depth = 0usize;
        let mut prev_dash = false;
        while let Some(t) = self.bump() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_dash {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            prev_dash = t.is_punct('-');
        }
    }

    /// Skips tokens until a `;` at bracket depth zero (for `use`,
    /// `const`, `type`, `static`, …). Consumes the `;`.
    fn skip_to_semi(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return,
                _ => {}
            }
        }
    }

    /// Collects the attributes directly before an item, skipping them.
    fn attrs(&mut self) -> Attrs {
        let mut a = Attrs::default();
        loop {
            if !self.at_punct('#') {
                return a;
            }
            self.bump();
            if self.at_punct('!') {
                self.bump();
            }
            if !self.at_punct('[') {
                return a;
            }
            let start = self.i;
            self.skip_balanced('[', ']');
            let body: Vec<&str> = self.toks[start..self.i]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            if body.first() == Some(&"cfg") && body.contains(&"test") {
                a.cfg_test = true;
            }
            if body.first() == Some(&"test") {
                a.test = true;
            }
        }
    }

    /// Parses a sequence of items until end of input or an unmatched
    /// closing brace (the caller's), which is consumed.
    fn items(&mut self, in_test: bool) {
        loop {
            let attrs = self.attrs();
            let Some(t) = self.peek() else { return };
            if t.is_punct('}') {
                self.bump();
                return;
            }
            if t.kind == TokKind::Ident {
                if t.is_ident("pub") {
                    self.bump();
                    if self.at_punct('(') {
                        self.skip_balanced('(', ')');
                    }
                }
                self.item_after_vis(attrs, in_test);
            } else {
                self.bump();
            }
        }
    }

    fn item_after_vis(&mut self, attrs: Attrs, in_test: bool) {
        // Modifiers before `fn`.
        while self.at_ident("unsafe")
            || self.at_ident("async")
            || self.at_ident("const")
                && self.toks.get(self.i + 1).map(|t| t.is_ident("fn")) == Some(true)
            || self.at_ident("extern")
                && self.toks.get(self.i + 1).map(|t| t.kind == TokKind::Str) == Some(true)
            || self.at_ident("default")
        {
            self.bump();
        }
        let Some(t) = self.peek() else { return };
        let text = t.text.clone();
        match text.as_str() {
            "struct" | "enum" | "union" => {
                self.bump();
                self.bump(); // name
                if self.at_punct('<') {
                    self.skip_angles();
                }
                while let Some(t) = self.peek() {
                    if t.is_punct('{') {
                        self.skip_balanced('{', '}');
                        break;
                    }
                    if t.is_punct(';') {
                        self.bump();
                        break;
                    }
                    self.bump();
                }
            }
            "impl" => {
                self.bump();
                self.parse_impl(in_test || attrs.cfg_test);
            }
            "fn" => {
                self.bump();
                self.parse_fn(in_test || attrs.cfg_test || attrs.test);
            }
            "mod" => {
                self.bump();
                self.bump(); // name
                if self.at_punct('{') {
                    self.bump(); // '{'
                    self.items(in_test || attrs.cfg_test);
                } else {
                    self.skip_to_semi();
                }
            }
            "trait" => {
                self.bump();
                self.bump(); // name
                while let Some(t) = self.peek() {
                    if t.is_punct('{') {
                        self.skip_balanced('{', '}');
                        break;
                    }
                    if t.is_punct('<') {
                        self.skip_angles();
                    } else {
                        self.bump();
                    }
                }
            }
            "macro_rules" => {
                self.bump();
                if self.at_punct('!') {
                    self.bump();
                }
                self.bump(); // macro name
                match self.peek().map(|t| t.text.as_str()) {
                    Some("{") => self.skip_balanced('{', '}'),
                    Some("(") => {
                        self.skip_balanced('(', ')');
                        self.skip_to_semi();
                    }
                    _ => {}
                }
            }
            "use" | "const" | "static" | "type" | "extern" => {
                self.bump();
                self.skip_to_semi();
            }
            _ => {
                self.bump();
            }
        }
    }

    /// Skips an impl header (generics, trait, self type, where clause)
    /// and parses the functions of its body.
    fn parse_impl(&mut self, in_test: bool) {
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct('<') {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        if !self.at_punct('{') {
            return;
        }
        self.bump();
        self.impl_items(in_test);
    }

    /// Items inside an impl block, until its closing brace.
    fn impl_items(&mut self, in_test: bool) {
        loop {
            let attrs = self.attrs();
            let Some(t) = self.peek() else { return };
            if t.is_punct('}') {
                self.bump();
                return;
            }
            if self.at_ident("pub") {
                self.bump();
                if self.at_punct('(') {
                    self.skip_balanced('(', ')');
                }
            }
            while self.at_ident("unsafe")
                || self.at_ident("async")
                || self.at_ident("default")
                || self.at_ident("const")
                    && self.toks.get(self.i + 1).map(|t| t.is_ident("fn")) == Some(true)
            {
                self.bump();
            }
            let Some(t) = self.peek() else { return };
            let text = t.text.clone();
            match text.as_str() {
                "fn" => {
                    self.bump();
                    self.parse_fn(in_test || attrs.cfg_test || attrs.test);
                }
                "const" | "type" => {
                    self.bump();
                    self.skip_to_semi();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_fn(&mut self, in_test: bool) {
        let Some(name_tok) = self.bump() else { return };
        let name = name_tok.text.clone();
        if self.at_punct('<') {
            self.skip_angles();
        }
        if self.at_punct('(') {
            self.skip_balanced('(', ')');
        }
        // Return type / where clause, until the body or a `;`
        // (bodyless trait-method signatures are dropped).
        loop {
            let Some(t) = self.peek() else { return };
            if t.is_punct(';') {
                self.bump();
                return;
            }
            if t.is_punct('{') {
                break;
            }
            if t.is_punct('<') {
                self.skip_angles();
            } else if t.is_punct('(') {
                self.skip_balanced('(', ')');
            } else {
                self.bump();
            }
        }
        let body_open = self.i;
        self.skip_balanced('{', '}');
        self.out.fns.push(FnDef {
            name,
            body: body_open + 1..self.i.saturating_sub(1),
            in_test,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn impl_methods_and_free_fns_are_found() {
        let p = parsed(
            "impl<V: Value> Wire for GwtsProcess<V> {\n\
               fn encode(&self, w: &mut Writer) { self.a.encode(w); }\n\
               fn decode(r: &mut Reader<'_>) -> Result<Self, E> { Ok(x) }\n\
             }\n\
             pub struct Metrics { pub x: u64 }\n\
             impl Metrics { pub fn merge(&mut self, o: &Metrics) { self.x += o.x; } }\n\
             fn free() {}",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["encode", "decode", "merge", "free"]);
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let p = parsed(
            "fn shipped() { }\n\
             #[cfg(test)]\n\
             mod tests {\n\
               struct Helper { x: u64 }\n\
               fn helper() { }\n\
             }\n\
             #[test]\n\
             fn case() { panic!(\"fine in tests\") }",
        );
        let in_test: Vec<bool> = p.fns.iter().map(|f| f.in_test).collect();
        assert_eq!(in_test, [false, true, true]);
    }

    #[test]
    fn type_definitions_are_skipped() {
        let p = parsed(
            "struct Digest(pub [u8; 64]);\n\
             struct Marker;\n\
             enum E { A { f: fn() -> u8 }, B }\n\
             fn after() {}",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let p = parsed(
            "macro_rules! wire_int {\n\
               ($t:ty) => { impl Wire for $t { fn encode(&self) {} } };\n\
             }\n\
             fn after() {}",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
    }

    #[test]
    fn fn_body_ranges_are_exact() {
        let src = "fn f(x: u64) -> u64 { x + 1 }";
        let toks = lex(src);
        let p = parse(&toks);
        let body: Vec<&str> = toks[p.fns[0].body.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body, ["x", "+", "1"]);
    }

    #[test]
    fn where_clauses_and_nested_mods() {
        let p = parsed(
            "impl<T> Wire for Holder<T> where T: Clone + Ord {\n\
               fn encode(&self) { }\n\
             }\n\
             mod inner { pub struct S { pub f: u8 } fn g() {} }",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["encode", "g"]);
    }
}
