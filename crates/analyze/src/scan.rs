//! The scope scan: one pass over the lexer's tokens that finds what the
//! rules are scoped by (DESIGN.md §14) — the line spans of
//! `#[cfg(test)]` items, and the functions annotated
//! `// analyze: hot(<reason>)` with the spans of their loop bodies.
//!
//! Like the lexer, this is **not** a Rust parser. At each code token it
//! tries to read an item head: outer attributes, modifiers (`pub`,
//! `pub(crate)`, `unsafe`, `const`, `async`, `extern "C"`, `default`)
//! and an item keyword. The item ends at the close of its first `{` or
//! at a `;` outside brackets, whichever comes first; `use`, `static`,
//! `type` and `const` items end only at the `;`. A `#[cfg(test)]` item
//! is masked whole, nested items included, and the scan goes on after
//! it; any other item's body is scanned for nested items the same way.
//! A token that starts no item is passed over, so an unknown construct
//! costs its scope information, never a misattribution.

use crate::lexer::{Tok, TokKind};

/// A `fn` annotated `// analyze: hot(<reason>)` outside `#[cfg(test)]`
/// items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotFn {
    /// The fn's name.
    pub name: String,
    /// The annotation's reason.
    pub reason: String,
    /// Line of the fn's first token (attributes included) through its
    /// closing brace or `;`.
    pub span: (u32, u32),
    /// Every `loop`/`while`/`for` body, keyword line through closing
    /// brace, nested loops included.
    pub loops: Vec<(u32, u32)>,
}

/// What the rules read about one file's scopes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scopes {
    /// Line spans of the outermost `#[cfg(test)]` items, first
    /// attribute through closing brace or `;`.
    pub test_spans: Vec<(u32, u32)>,
    /// The hot fns, in source order.
    pub hot_fns: Vec<HotFn>,
}

/// Keywords that start an item.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "mod",
    "impl",
    "trait",
    "struct",
    "enum",
    "union",
    "macro_rules",
    "use",
    "static",
    "type",
];

/// Keywords that can prefix an item keyword without changing the item.
const MODIFIERS: &[&str] = &["pub", "unsafe", "const", "async", "extern", "default"];

/// Scans a token stream (comments included: they carry the hot
/// annotations).
///
/// A hot annotation applies to the `fn` whose head follows it with no
/// code in between; doc comments and further plain comments may
/// intervene, and attributes may stand between it and the `fn`.
#[must_use]
pub fn scan(toks: &[Tok]) -> Scopes {
    // The code tokens, each with the last hot annotation among the
    // comments right before it.
    let mut code = Vec::new();
    let mut hot_above = Vec::new();
    let mut pending = None;
    for t in toks {
        if t.kind == TokKind::Comment {
            pending = parse_hot(&t.text).or(pending);
        } else {
            code.push(t);
            hot_above.push(pending.take());
        }
    }
    let mut scopes = Scopes::default();
    let mut i = 0;
    while i < code.len() {
        let Some((kw, cfg_test)) = item_head(&code, i) else {
            i += 1;
            continue;
        };
        let to_semi = ["use", "static", "type", "const", "crate"].contains(&code[kw].text.as_str());
        let Some((body, end)) = item_end(&code, kw + 1, to_semi) else {
            i += 1;
            continue;
        };
        let span = (code[i].line, code[end].line);
        if cfg_test {
            scopes.test_spans.push(span);
            i = end + 1;
            continue;
        }
        let inner = body.unwrap_or(end);
        if let Some(reason) = hot_above[i].as_ref().filter(|_| code[kw].is_ident("fn")) {
            scopes.hot_fns.push(HotFn {
                name: code[kw + 1].text.clone(),
                reason: reason.clone(),
                span,
                loops: loop_spans(&code[inner..=end]),
            });
        }
        i = inner + 1;
    }
    scopes
}

/// Parses `analyze: hot(<reason>)` out of a comment. A missing or
/// empty reason voids the annotation, and doc comments never carry
/// one (prose describing the grammar must not activate it).
#[must_use]
pub fn parse_hot(comment: &str) -> Option<String> {
    if crate::rules::is_doc_comment(comment) {
        return None;
    }
    let at = comment.find("analyze: hot(")?;
    let args = &comment[at + "analyze: hot(".len()..];
    let reason = args[..args.rfind(')')?].trim();
    (!reason.is_empty()).then(|| reason.to_string())
}

/// Reads an item head at `i`: returns the index of its item keyword
/// (`crate` for `extern crate`, `const` for a `const` item) and whether
/// an outer attribute is exactly `#[cfg(test)]`.
fn item_head(code: &[&Tok], mut i: usize) -> Option<(usize, bool)> {
    let mut cfg_test = false;
    while code.get(i)?.is_punct('#') && code.get(i + 1)?.is_punct('[') {
        let close = close(code, i + 1)?;
        cfg_test |= matches!(&code[i + 2..close], [a, b, c, d]
            if a.is_ident("cfg") && b.is_punct('(') && c.is_ident("test") && d.is_punct(')'));
        i = close + 1;
    }
    loop {
        let t = code.get(i)?;
        let next = code.get(i + 1);
        let next_is = |words: &[&str]| {
            next.is_some_and(|n| n.kind == TokKind::Ident && words.contains(&n.text.as_str()))
        };
        if t.kind != TokKind::Ident {
            return None;
        } else if t.is_ident("fn") {
            // `fn(…)` is a pointer type, not an item.
            return next
                .is_some_and(|n| n.kind == TokKind::Ident)
                .then_some((i, cfg_test));
        } else if ITEM_KEYWORDS.contains(&t.text.as_str()) {
            return Some((i, cfg_test));
        } else if t.is_ident("extern") && next_is(&["crate"]) {
            return Some((i + 1, cfg_test));
        } else if t.is_ident("const") && !next_is(&["fn"]) && !next_is(MODIFIERS) {
            return Some((i, cfg_test));
        } else if !MODIFIERS.contains(&t.text.as_str()) {
            return None;
        }
        // A modifier: step over it, with `(crate)` or `"C"` after it.
        i += 1;
        if code.get(i)?.is_punct('(') {
            i = close(code, i)? + 1;
        } else if t.is_ident("extern") && code[i].kind == TokKind::Str {
            i += 1;
        }
    }
}

/// Finds the end of the item whose head ends before `from`: the close
/// of the first `{` outside brackets, or a `;` outside brackets, as
/// `(Some(open brace), close)` or `(None, semicolon)`. With `to_semi`
/// only a `;` ends it. `None` when the enclosing brackets close first.
fn item_end(code: &[&Tok], from: usize, to_semi: bool) -> Option<(Option<usize>, usize)> {
    let mut depth = 0;
    for (k, t) in code.iter().enumerate().skip(from) {
        if depth == 0 && t.is_punct(';') {
            return Some((None, k));
        }
        if depth == 0 && !to_semi && t.is_punct('{') {
            return Some((Some(k), close(code, k)?));
        }
        depth += nesting(t);
        if depth < 0 {
            return None;
        }
    }
    None
}

/// The index of the bracket closing the one at `open`.
fn close(code: &[&Tok], open: usize) -> Option<usize> {
    let mut depth = 0;
    (open..code.len()).find(|&k| {
        depth += nesting(code[k]);
        depth == 0
    })
}

/// `1` for an opening bracket, `-1` for a closing one, else `0`.
fn nesting(t: &Tok) -> i32 {
    match t.text.as_str() {
        "(" | "[" | "{" if t.kind == TokKind::Punct => 1,
        ")" | "]" | "}" if t.kind == TokKind::Punct => -1,
        _ => 0,
    }
}

/// Line spans of every `loop`/`while`/`for` body in a fn body, keyword
/// line through closing brace.
fn loop_spans(body: &[&Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    for (k, t) in body.iter().enumerate() {
        // `for<'a>` higher-ranked bounds are not loops.
        let hrtb = t.is_ident("for") && body.get(k + 1).is_some_and(|n| n.is_punct('<'));
        if (t.is_ident("loop") || t.is_ident("while") || t.is_ident("for")) && !hrtb {
            if let Some((Some(_), end)) = item_end(body, k + 1, false) {
                spans.push((t.line, body[end].line));
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scopes(src: &str) -> Scopes {
        scan(&lex(src))
    }

    fn hot(name: &str, reason: &str, span: (u32, u32), loops: &[(u32, u32)]) -> HotFn {
        HotFn {
            name: name.to_string(),
            reason: reason.to_string(),
            span,
            loops: loops.to_vec(),
        }
    }

    #[test]
    fn fn_items_have_names_and_spans() {
        let src = "pub fn alpha(x: u32) -> u32 {\n    x + 1\n}\n\nfn beta() {}\n";
        assert_eq!(scopes(src), Scopes::default());
        let src = "// analyze: hot(a)\npub fn alpha(x: u32) -> u32 {\n    x + 1\n}\n\n\
                   // analyze: hot(b)\nfn beta() {}\n";
        assert_eq!(
            scopes(src).hot_fns,
            [
                hot("alpha", "a", (2, 4), &[]),
                hot("beta", "b", (7, 7), &[])
            ]
        );
    }

    #[test]
    fn impl_and_mod_nesting() {
        let src = "mod outer {\n\
                       impl Foo {\n\
                           fn method(&self) {}\n\
                       }\n\
                   }\n";
        assert_eq!(scopes(src), Scopes::default());
        let src = "mod outer {\n\
                       impl Foo {\n\
                           // analyze: hot(m)\n\
                           fn method(&self) {}\n\
                       }\n\
                   }\n";
        assert_eq!(scopes(src).hot_fns, [hot("method", "m", (4, 4), &[])]);
    }

    #[test]
    fn cfg_test_masks_nested_mods() {
        let src = "pub fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       mod inner {\n\
                           fn helper() {}\n\
                       }\n\
                       #[test]\n\
                       fn t() {}\n\
                   }\n\
                   pub fn also_live() {}\n";
        assert_eq!(
            scopes(src).test_spans,
            [(2, 9)],
            "attr line through closing brace"
        );
        // Nested test mod *inside* a non-test mod still masks.
        let src2 = "mod live {\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                        fn t() {}\n\
                    }\n\
                    pub fn real() {}\n\
                    }\n";
        assert_eq!(scopes(src2).test_spans, [(2, 5)]);
    }

    #[test]
    fn cfg_test_on_fn_and_statement_items() {
        let src = "#[cfg(test)]\nfn only_when_testing() { let x: Option<u32> = None; }\n\
                   #[cfg(test)]\nuse std::collections::HashMap;\n\
                   fn live() {}\n";
        assert_eq!(scopes(src).test_spans, [(1, 2), (3, 4)]);
        // An item after inner attributes starts at its own attribute.
        let src = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(scopes(src).test_spans, [(3, 4)]);
    }

    #[test]
    fn other_cfg_attrs_do_not_mask() {
        let src =
            "#[cfg(feature = \"x\")]\nmod gated { fn f() {} }\n#[cfg(not(test))]\nfn g() {}\n";
        assert_eq!(scopes(src), Scopes::default());
    }

    #[test]
    fn modifiers_const_items_and_pointer_types() {
        let src = "// analyze: hot(a)\npub(crate) const unsafe fn a() {}\n\
                   #[cfg(test)]\nconst X: [u8; 2] = { [1, 2] };\n\
                   // analyze: hot(b)\nextern \"C\" fn b(f: fn(u8), p: *const u8) {}\n\
                   #[cfg(test)]\nextern crate alloc;\n\
                   struct S { p: *const u8 }\n\
                   #[cfg(test)]\nmod tests {}\n";
        assert_eq!(
            scopes(src),
            Scopes {
                test_spans: vec![(3, 4), (7, 8), (10, 11)],
                hot_fns: vec![hot("a", "a", (2, 2), &[]), hot("b", "b", (6, 6), &[])],
            }
        );
    }

    #[test]
    fn hot_annotation_attaches_to_adjacent_fn_only() {
        let src = "// analyze: hot(per-cycle service loop)\n\
                   pub fn serviced() { for x in 0..4 { let _ = x; } }\n\
                   pub fn not_hot() {}\n";
        assert_eq!(
            scopes(src).hot_fns,
            [hot("serviced", "per-cycle service loop", (2, 2), &[(2, 2)])]
        );
    }

    #[test]
    fn hot_annotation_does_not_leak_past_intervening_code() {
        let src = "// analyze: hot(stale)\n\
                   static X: u32 = 1;\n\
                   fn later() {}\n";
        assert_eq!(scopes(src), Scopes::default());
    }

    #[test]
    fn hot_annotation_survives_doc_comments_and_attrs() {
        let src = "// analyze: hot(lookup)\n\
                   /// Docs.\n\
                   #[inline]\n\
                   pub fn lookup() {}\n";
        assert_eq!(scopes(src).hot_fns, [hot("lookup", "lookup", (3, 4), &[])]);
    }

    #[test]
    fn hot_comment_inside_a_body_does_not_annotate_its_own_fn() {
        let src = "fn f(v: &[u32]) {\n\
                       // prose mentioning analyze: hot(not an annotation)\n\
                       for x in v {\n\
                           let _ = x;\n\
                       }\n\
                   }\n\
                   fn g() { loop {} }\n";
        assert_eq!(scopes(src), Scopes::default());
    }

    #[test]
    fn hot_requires_reason() {
        assert_eq!(scopes("// analyze: hot()\nfn f() {}\n"), Scopes::default());
        assert_eq!(parse_hot("// analyze: hot( why )"), Some("why".to_string()));
    }

    #[test]
    fn hot_in_doc_comment_is_prose_not_annotation() {
        let src = "//! Annotate with `// analyze: hot(<reason>)`.\n\
                   /// See `// analyze: hot(why)`.\n\
                   fn f() { loop {} }\n";
        assert_eq!(scopes(src), Scopes::default());
    }

    #[test]
    fn hot_inside_cfg_test_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n// analyze: hot(x)\nfn f() { loop {} }\n}\n";
        assert_eq!(
            scopes(src),
            Scopes {
                test_spans: vec![(1, 5)],
                hot_fns: Vec::new(),
            }
        );
    }

    #[test]
    fn loop_spans_cover_all_loop_forms_and_nesting() {
        let src = "// analyze: hot(l)\n\
                   fn f(v: &[u32]) {\n\
                   let mut i = 0;\n\
                   while i < v.len() {\n\
                       for x in v.iter().filter(|x| **x > 0) {\n\
                           let _ = x;\n\
                       }\n\
                       i += 1;\n\
                   }\n\
                   loop {\n\
                       break;\n\
                   }\n\
                   }\n";
        assert_eq!(
            scopes(src).hot_fns,
            [hot("f", "l", (2, 13), &[(4, 9), (5, 7), (10, 12)])]
        );
    }

    #[test]
    fn while_let_and_labeled_loops() {
        let src = "// analyze: hot(l)\n\
                   fn f(mut it: Vec<u32>) {\n\
                   while let Some(x) = it.pop() {\n\
                       let _ = x;\n\
                   }\n\
                   'outer: loop { break 'outer; }\n\
                   }\n";
        assert_eq!(
            scopes(src).hot_fns,
            [hot("f", "l", (2, 7), &[(3, 5), (6, 6)])]
        );
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let src = "// analyze: hot(l)\n\
                   fn f() {\n    let g: for<'a> fn(&'a u32) -> &'a u32 = |x| x;\n    let _ = g;\n}\n";
        assert_eq!(scopes(src).hot_fns, [hot("f", "l", (2, 5), &[])]);
    }

    #[test]
    fn struct_expressions_do_not_derail_item_spans() {
        let src = "// analyze: hot(m)\n\
                   pub fn make() -> Foo {\n    Foo { a: 1, b: vec![2] }\n}\n\
                   pub struct Foo { pub a: u32, pub b: Vec<u32> }\n\
                   // analyze: hot(a)\n\
                   fn after() {}\n";
        assert_eq!(
            scopes(src).hot_fns,
            [
                hot("make", "m", (2, 4), &[]),
                hot("after", "a", (7, 7), &[])
            ]
        );
    }

    #[test]
    fn trait_fns_without_bodies_parse() {
        let src = "pub trait T {\n    // analyze: hot(r)\n    fn required(&self) -> u32;\n\
                   // analyze: hot(p)\n    fn provided(&self) -> u32 { 1 }\n}\n";
        assert_eq!(
            scopes(src).hot_fns,
            [
                hot("required", "r", (3, 3), &[]),
                hot("provided", "p", (5, 5), &[])
            ]
        );
    }

    #[test]
    fn nested_fn_inside_fn_is_found() {
        let src =
            "fn outer() {\n    // analyze: hot(i)\n    fn inner() { loop {} }\n    inner();\n}\n";
        assert_eq!(scopes(src).hot_fns, [hot("inner", "i", (3, 3), &[(3, 3)])]);
    }
}
