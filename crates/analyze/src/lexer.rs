//! A minimal, line-accurate Rust tokenizer.
//!
//! This is **not** a full Rust lexer — it is exactly enough to drive the
//! rules in [`crate::rules`] without external dependencies (the build
//! container cannot reach the crates registry, so `syn` is off the
//! table). What it must get right, it does get right:
//!
//! * comments (`//`, nested `/* */`, doc variants) survive as tokens so
//!   allowlist annotations can be parsed from them;
//! * string literals (cooked, raw `r#"…"#`, byte, C) and char literals
//!   never leak their contents as identifiers — `"HashMap"` inside a
//!   string is not a finding;
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`);
//! * every token records the 1-based source line it starts on.
//!
//! Anything the rules do not care about (numeric suffixes, operator
//! glyph fusion like `::` vs `:` `:`) is kept deliberately simple:
//! multi-character operators are emitted as single-character
//! [`TokKind::Punct`] tokens and rules match the sequence.

/// What a [`Tok`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `fn`, `unwrap`).
    Ident,
    /// Lifetime (`'a`, `'static`) — text excludes the quote.
    Lifetime,
    /// String literal of any flavor — text **includes** the delimiters.
    Str,
    /// Char literal — text includes the quotes.
    Char,
    /// Numeric literal.
    Num,
    /// Single punctuation character (`:`, `#`, `!`, `(`, …).
    Punct,
    /// Line or block comment — text includes the delimiters.
    Comment,
}

/// One token: kind, verbatim text, and the 1-based line it starts on.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// `true` when this is an [`TokKind::Ident`] with exactly this text.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` when this is a [`TokKind::Punct`] with exactly this char.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// The content of a string literal with delimiters stripped
    /// (`"x"` → `x`, `r#"x"#` → `x`); `None` for other kinds.
    #[must_use]
    pub fn str_content(&self) -> Option<&str> {
        if self.kind != TokKind::Str {
            return None;
        }
        let s = self.text.trim_start_matches(['r', 'b', 'c']);
        let s = s.trim_start_matches('#');
        let s = s.strip_prefix('"')?;
        let s = s.trim_end_matches('#');
        s.strip_suffix('"')
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`. Unterminated constructs (string, block comment) are
/// closed at end of input rather than reported — the linter's job is to
/// scan code that already compiles.
#[must_use]
pub fn lex(src: &str) -> Vec<Tok> {
    let cs: Vec<char> = src.chars().collect();
    let n = cs.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    // Advances past cs[from..to] counting newlines, returns the slice.
    let slice = |from: usize, to: usize| cs[from..to].iter().collect::<String>();

    while i < n {
        let c = cs[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let start_line = line;

        // Comments.
        if c == '/' && i + 1 < n && cs[i + 1] == '/' {
            while i < n && cs[i] != '\n' {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Comment,
                text: slice(start, i),
                line: start_line,
            });
            continue;
        }
        if c == '/' && i + 1 < n && cs[i + 1] == '*' {
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if cs[i] == '/' && i + 1 < n && cs[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if cs[i] == '*' && i + 1 < n && cs[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if cs[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Comment,
                text: slice(start, i),
                line: start_line,
            });
            continue;
        }

        // Raw / byte / C string prefixes: r"", r#""#, b"", br#""#, c"".
        if matches!(c, 'r' | 'b' | 'c') {
            let mut j = i;
            // Consume up to two prefix letters (e.g. `br`).
            while j < n && matches!(cs[j], 'r' | 'b' | 'c') && j - i < 2 {
                j += 1;
            }
            let hashes_at = j;
            while j < n && cs[j] == '#' {
                j += 1;
            }
            let raw = cs[i..hashes_at].contains(&'r');
            if j < n && cs[j] == '"' && (raw || hashes_at == j) {
                let hashes = j - hashes_at;
                i = j + 1;
                loop {
                    if i >= n {
                        break;
                    }
                    if cs[i] == '\n' {
                        line += 1;
                        i += 1;
                        continue;
                    }
                    if !raw && cs[i] == '\\' {
                        // An escaped newline continues the string on the
                        // next line.
                        if cs.get(i + 1) == Some(&'\n') {
                            line += 1;
                        }
                        i += 2;
                        continue;
                    }
                    if cs[i] == '"' {
                        let mut k = 0;
                        while k < hashes && i + 1 + k < n && cs[i + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            i += 1 + hashes;
                            break;
                        }
                    }
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: slice(start, i),
                    line: start_line,
                });
                continue;
            }
            // Not a string prefix: fall through to identifier below.
        }

        // Cooked strings.
        if c == '"' {
            i += 1;
            while i < n {
                match cs[i] {
                    '\\' => {
                        if cs.get(i + 1) == Some(&'\n') {
                            line += 1;
                        }
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: slice(start, i),
                line: start_line,
            });
            continue;
        }

        // Lifetimes vs char literals.
        if c == '\'' {
            let next = cs.get(i + 1).copied();
            let after = cs.get(i + 2).copied();
            let is_lifetime = match next {
                Some(nc) if is_ident_start(nc) => after != Some('\''),
                _ => false,
            };
            if is_lifetime {
                i += 1;
                while i < n && is_ident_continue(cs[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: slice(start + 1, i),
                    line: start_line,
                });
            } else {
                // Char literal: 'x', '\n', '\u{1F980}', '\''.
                i += 1;
                while i < n {
                    match cs[i] {
                        '\\' => i += 2,
                        '\'' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: slice(start, i),
                    line: start_line,
                });
            }
            continue;
        }

        // Identifiers / keywords.
        if is_ident_start(c) {
            i += 1;
            while i < n && is_ident_continue(cs[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: slice(start, i),
                line: start_line,
            });
            continue;
        }

        // Numbers (incl. 0x…, 1_000, 0.5; stops before `..` ranges).
        if c.is_ascii_digit() {
            i += 1;
            while i < n {
                let d = cs[i];
                if is_ident_continue(d) {
                    i += 1;
                } else if d == '.' && cs.get(i + 1).is_some_and(char::is_ascii_digit) {
                    i += 2;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: slice(start, i),
                line: start_line,
            });
            continue;
        }

        // Everything else: one punctuation char per token.
        i += 1;
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: start_line,
        });
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = lex("use std::collections::HashMap;");
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["use", "std", "collections", "HashMap"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        for src in [
            "let x = \"HashMap::new()\";",
            "let x = r#\"HashMap \" quoted\"#;",
            "let x = b\"HashMap\";",
            "let x = r\"HashMap\";",
        ] {
            let toks = lex(src);
            assert!(
                !toks.iter().any(|t| t.is_ident("HashMap")),
                "leaked from {src}"
            );
            assert_eq!(
                toks.iter().filter(|t| t.kind == TokKind::Str).count(),
                1,
                "in {src}"
            );
        }
    }

    #[test]
    fn str_content_strips_delimiters() {
        let toks = lex(r##"("invariant: x", r#"raw"#)"##);
        let strs: Vec<_> = toks.iter().filter_map(Tok::str_content).collect();
        assert_eq!(strs, ["invariant: x", "raw"]);
    }

    #[test]
    fn comments_are_tokens_and_escape_nothing() {
        let toks = lex("// analyze: allow(hash-order, why)\nlet x = 1; /* Instant::now */");
        let comments: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Comment)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(comments.len(), 2);
        assert!(comments[0].contains("allow(hash-order"));
        assert!(!toks.iter().any(|t| t.is_ident("Instant")));
    }

    #[test]
    fn nested_block_comment_terminates() {
        let toks = lex("/* a /* b */ c */ ident");
        assert_eq!(toks.len(), 2);
        assert!(toks[1].is_ident("ident"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn lines_are_accurate() {
        let toks = lex("a\nb\n\n  c /* x\ny */ d\ne");
        let find = |s: &str| toks.iter().find(|t| t.is_ident(s)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 2);
        assert_eq!(find("c"), 4);
        assert_eq!(find("d"), 5);
        assert_eq!(find("e"), 6);
        // A `\` before a newline continues a string, cooked or byte, on
        // the next line; the newline still counts.
        let toks = lex("let s = \"a\\\n   b\";\nf\nlet t = b\"c\\\nd\";\ng");
        let find = |s: &str| toks.iter().find(|t| t.is_ident(s)).unwrap().line;
        assert_eq!(find("f"), 3);
        assert_eq!(find("g"), 6);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("for i in 0..10 { x.0.max(1_000); let h = 0x6A09_E667; let f = 0.5; }");
        assert!(toks.iter().any(|t| t.is_ident("max")));
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert!(nums.contains(&"0x6A09_E667"));
        assert!(nums.contains(&"0.5"));
        assert!(nums.contains(&"10"));
    }

    #[test]
    fn raw_ident_like_prefixes_fall_back_to_idents() {
        let toks = lex("let radius = 1; break_even(b, c, r);");
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(idents.contains(&"radius"));
        assert!(idents.contains(&"break_even"));
        assert!(idents.contains(&"b"));
        assert!(idents.contains(&"r"));
    }
}
