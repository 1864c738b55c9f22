//! The per-thread type-string memo: one parse per type string per thread.
//!
//! Annotations are code that every boot runs again (paper §2–3), so a
//! thread that boots tenant after tenant evaluates the same `type` calls
//! with the same strings. The `type` builtin parses a string at the
//! thread's first use of it and takes a copy of that parse afterwards.
//! Parsing is a pure function of the string, so the copy is the type a
//! fresh parse would return, and every signature fingerprint stays the
//! same. Parse errors are never stored: a bad string parses again and
//! returns the same error every time.
//!
//! The memo is per thread, like the source store ([`hb_syntax::store`]),
//! and keeps at most [`TYPE_MEMO_CAPACITY`] types (a constant): a miss
//! beyond that evicts the least recently used one.

use hb_types::{parse_method_type, MethodType, TypeParseError};
use std::cell::RefCell;
use std::collections::HashMap;

/// Most types one thread's memo keeps. A thread's first boot of the six
/// subject apps with checking, one request round each, makes 577 `type`
/// calls (the core library's included) with 184 distinct strings.
pub const TYPE_MEMO_CAPACITY: usize = 512;

/// The calling thread's memo counters (see [`type_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeMemoStats {
    /// Type strings answered from the memo.
    pub hits: u64,
    /// Type strings parsed, failed parses included.
    pub misses: u64,
    /// Types held now (at most [`TYPE_MEMO_CAPACITY`]).
    pub types: usize,
}

struct Memo {
    ty: MethodType,
    last_use: u64,
}

#[derive(Default)]
struct TypeMemo {
    types: HashMap<Box<str>, Memo>,
    /// Advances on every lookup; orders entries for eviction.
    clock: u64,
    stats: TypeMemoStats,
}

thread_local! {
    static MEMO: RefCell<TypeMemo> = RefCell::new(TypeMemo::default());
}

/// The method type `src` spells, parsed at most once per thread while it
/// stays in the memo (see the module docs).
///
/// # Errors
///
/// The parse error of `src`, which is never stored.
pub(crate) fn method_type(src: &str) -> Result<MethodType, TypeParseError> {
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        m.clock += 1;
        let clock = m.clock;
        if let Some(hit) = m.types.get_mut(src) {
            hit.last_use = clock;
            let ty = hit.ty.clone();
            m.stats.hits += 1;
            return Ok(ty);
        }
        m.stats.misses += 1;
        let ty = parse_method_type(src)?;
        if m.types.len() >= TYPE_MEMO_CAPACITY {
            let oldest = m
                .types
                .iter()
                .min_by_key(|(_, memo)| memo.last_use)
                .map(|(src, _)| src.clone())
                .expect("the memo is full");
            m.types.remove(&oldest);
        }
        m.types.insert(
            src.into(),
            Memo {
                ty: ty.clone(),
                last_use: clock,
            },
        );
        m.stats.types = m.types.len();
        Ok(ty)
    })
}

/// The calling thread's memo counters.
pub fn type_memo_stats() -> TypeMemoStats {
    MEMO.with(|m| m.borrow().stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hits and misses since `before`.
    fn delta(before: TypeMemoStats) -> (u64, u64) {
        let now = type_memo_stats();
        (now.hits - before.hits, now.misses - before.misses)
    }

    #[test]
    fn a_repeated_string_parses_once_and_matches_a_fresh_parse() {
        let src = "(MemoRepeat, Fixnum) -> Array<MemoRepeat>";
        let before = type_memo_stats();
        let first = method_type(src).unwrap();
        let second = method_type(src).unwrap();
        assert_eq!(delta(before), (1, 1));
        assert_eq!(first, second);
        assert_eq!(second, parse_method_type(src).unwrap());
    }

    #[test]
    fn errors_are_never_memoised() {
        let src = "(MemoBroken -> String";
        let before = type_memo_stats();
        let errors: Vec<_> = (0..3).map(|_| method_type(src).unwrap_err()).collect();
        assert_eq!(delta(before), (0, 3), "every call parses");
        assert!(errors.iter().all(|e| *e == errors[0]));
        assert_eq!(errors[0], parse_method_type(src).unwrap_err());
        assert_eq!(type_memo_stats().types, before.types);
    }

    #[test]
    fn memo_stays_within_its_bound_and_evicts_the_oldest() {
        let src = |i: usize| format!("(MemoBound{i}) -> Fixnum");
        method_type(&src(0)).unwrap();
        for i in 1..TYPE_MEMO_CAPACITY + 40 {
            method_type(&src(i)).unwrap();
            assert!(type_memo_stats().types <= TYPE_MEMO_CAPACITY);
        }
        assert_eq!(type_memo_stats().types, TYPE_MEMO_CAPACITY);
        let before = type_memo_stats();
        method_type(&src(TYPE_MEMO_CAPACITY + 39)).unwrap();
        assert_eq!(delta(before), (1, 0), "the newest string is kept");
        let before = type_memo_stats();
        method_type(&src(0)).unwrap();
        assert_eq!(delta(before), (0, 1), "the oldest string was evicted");
    }

    #[test]
    fn another_threads_memo_is_independent() {
        let src = "(MemoThread) -> %bool";
        let mine = method_type(src).unwrap();
        let before = type_memo_stats();
        let (theirs, stats) = std::thread::spawn(move || (method_type(src), type_memo_stats()))
            .join()
            .unwrap();
        assert_eq!(
            (stats.hits, stats.misses, stats.types),
            (0, 1, 1),
            "a fresh thread starts with an empty memo"
        );
        assert_eq!(theirs.unwrap(), mine, "and parses the same type");
        assert_eq!(type_memo_stats(), before);
    }
}
