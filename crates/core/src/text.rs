//! Tokenization for inverted full-text indexes (§7.3).
//!
//! PIQL rewrites `LIKE` predicates into lookups against a `TOKEN(col)`
//! index. The tokenizer is deliberately simple and deterministic: lowercase,
//! split on non-alphanumeric characters, drop empties. Index maintenance,
//! the dereference re-check and predicate evaluation all stream tokens
//! through [`each_token`], so a stored row always matches the tokens it was
//! indexed under.

use std::ops::ControlFlow;

/// Hand each token of `text` to `visit`, in order, until `visit` breaks. A
/// token is lowercased into `token`, one buffer cleared as each token
/// starts, so a caller that keeps it tokenizes without allocating; on
/// return it holds the last token visited (empty if there was none).
pub fn each_token<B>(
    text: &str,
    token: &mut String,
    mut visit: impl FnMut(&str) -> ControlFlow<B>,
) -> ControlFlow<B> {
    token.clear();
    let mut open = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            if !open {
                token.clear();
                open = true;
            }
            token.extend(ch.to_lowercase());
        } else if open {
            open = false;
            visit(token)?;
        }
    }
    if open {
        visit(token)?;
    }
    ControlFlow::Continue(())
}

/// Canonical form of a single search token (what a `LIKE [param]` binds to).
/// Returns `None` when the pattern contains more than one token — PIQL's
/// inverted index serves single-token lookups (§7.3).
pub fn search_token(pattern: &str) -> Option<String> {
    let mut token = String::new();
    search_token_into(pattern, &mut token).then_some(token)
}

/// [`search_token`] into `token`, which a caller that keeps it reuses:
/// answers whether the pattern is one token, which `token` then holds.
pub fn search_token_into(pattern: &str, token: &mut String) -> bool {
    let mut seen = 0;
    let _ = each_token(pattern.trim_matches('%'), token, |_| {
        seen += 1;
        if seen > 1 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    seen == 1
}

/// `text LIKE pattern` as a `TOKEN` index serves it: the pattern's one
/// search token is one of `text`'s tokens. A pattern of no or several
/// tokens matches nothing.
pub fn matches_like(text: &str, pattern: &str) -> bool {
    let Some(wanted) = search_token(pattern) else {
        return false;
    };
    let found = each_token(text, &mut String::new(), |token| {
        if token == wanted {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    found.is_break()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let _ = each_token(text, &mut String::new(), |t| {
            out.push(t.to_owned());
            ControlFlow::<()>::Continue(())
        });
        out
    }

    #[test]
    fn tokenizes_lowercase_alnum() {
        assert_eq!(
            tokens("The Grapes-of Wrath! 2nd ed."),
            vec!["the", "grapes", "of", "wrath", "2nd", "ed"]
        );
        assert!(tokens("  --  ").is_empty());
        // a break stops the walk and leaves the token it broke on
        let mut token = String::new();
        let at = each_token("one Two three", &mut token, |t| match t {
            "two" => ControlFlow::Break(2),
            _ => ControlFlow::Continue(()),
        });
        assert_eq!((at, token.as_str()), (ControlFlow::Break(2), "two"));
    }

    #[test]
    fn search_token_accepts_single_words_only() {
        assert_eq!(search_token("Wrath"), Some("wrath".into()));
        assert_eq!(search_token("%wrath%"), Some("wrath".into()));
        assert_eq!(search_token("grapes of"), None);
        assert_eq!(search_token(""), None);
    }

    #[test]
    fn like_is_one_token_exact() {
        assert!(matches_like("The Grapes of Wrath", "%WRATH%"));
        assert!(!matches_like("The Grapes of Wrath", "rape"));
        assert!(!matches_like("The Grapes of Wrath", "grapes of"));
        assert!(matches_like("Ümlaut Text", "ümlaut"));
    }
}
