//! The per-thread type-string memo: one parse per type string per thread.
//!
//! Annotations are code that every boot runs again (paper §2–3), so a
//! thread that boots tenant after tenant evaluates the same `type` calls
//! with the same strings, and a request that casts (`rdl_cast`) spells the
//! same type on every call. The memo keeps two tables:
//!
//! - **Method types**, for `type`: a signature string's [`MethodType`].
//! - **Types**, for `rdl_cast` and `var_type`: a single type string's
//!   [`Type`], so a cast on the request path hashes its string once and
//!   parses nothing after the thread's first use of it.
//!
//! A builtin parses a string at the thread's first use of it and takes a
//! copy of that parse afterwards. Parsing is a pure function of the
//! string, so the copy is the type a fresh parse would return, and every
//! signature fingerprint stays the same. Parse errors are never stored: a
//! bad string parses again and returns the same error every time.
//!
//! The memo is per thread, like the source store ([`hb_syntax::store`]).
//! Each table keeps at most [`TYPE_MEMO_CAPACITY`] entries (a constant): a
//! miss beyond that evicts the table's least recently used one.

use hb_intern::FastMap;
use hb_types::{parse_method_type, parse_type, MethodType, Type, TypeParseError};
use std::cell::RefCell;

/// Most entries each table of one thread's memo keeps. A thread's first
/// boot of the six subject apps with checking, one request round each,
/// makes 577 `type` calls (the core library's included) with 184 distinct
/// strings.
pub const TYPE_MEMO_CAPACITY: usize = 512;

/// The calling thread's memo counters (see [`type_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypeMemoStats {
    /// Type strings answered from the memo, in either table.
    pub hits: u64,
    /// Type strings parsed, failed parses included, in either table.
    pub misses: u64,
    /// Method types held now (at most [`TYPE_MEMO_CAPACITY`]).
    pub types: usize,
    /// Single types held now (at most [`TYPE_MEMO_CAPACITY`]).
    pub value_types: usize,
}

struct Memo<T> {
    parsed: T,
    last_use: u64,
}

/// One table: parses by string, evicting the least recently used at
/// [`TYPE_MEMO_CAPACITY`].
struct Table<T>(FastMap<Box<str>, Memo<T>>);

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table(FastMap::default())
    }
}

impl<T: Clone> Table<T> {
    /// `src`'s parse from the table, or `parse(src)`, stored unless it
    /// failed.
    fn get(
        &mut self,
        clock: u64,
        stats: &mut TypeMemoStats,
        src: &str,
        parse: fn(&str) -> Result<T, TypeParseError>,
    ) -> Result<T, TypeParseError> {
        if let Some(hit) = self.0.get_mut(src) {
            hit.last_use = clock;
            stats.hits += 1;
            return Ok(hit.parsed.clone());
        }
        stats.misses += 1;
        let parsed = parse(src)?;
        if self.0.len() >= TYPE_MEMO_CAPACITY {
            let oldest = self
                .0
                .iter()
                .min_by_key(|(_, memo)| memo.last_use)
                .map(|(src, _)| src.clone())
                .expect("the table is full");
            self.0.remove(&oldest);
        }
        self.0.insert(
            src.into(),
            Memo {
                parsed: parsed.clone(),
                last_use: clock,
            },
        );
        Ok(parsed)
    }
}

#[derive(Default)]
struct TypeMemo {
    method_types: Table<MethodType>,
    value_types: Table<Type>,
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
        let m = &mut *m.borrow_mut();
        m.clock += 1;
        let ty = m
            .method_types
            .get(m.clock, &mut m.stats, src, parse_method_type);
        m.stats.types = m.method_types.0.len();
        ty
    })
}

/// The single type `src` spells, parsed at most once per thread while it
/// stays in the memo (see the module docs).
///
/// # Errors
///
/// The parse error of `src`, which is never stored.
pub(crate) fn value_type(src: &str) -> Result<Type, TypeParseError> {
    MEMO.with(|m| {
        let m = &mut *m.borrow_mut();
        m.clock += 1;
        let ty = m.value_types.get(m.clock, &mut m.stats, src, parse_type);
        m.stats.value_types = m.value_types.0.len();
        ty
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
    fn a_repeated_single_type_parses_once_in_its_own_table() {
        let src = "Array<MemoCast>";
        let before = type_memo_stats();
        let first = value_type(src).unwrap();
        let second = value_type(src).unwrap();
        assert_eq!(delta(before), (1, 1));
        assert_eq!(first, second);
        assert_eq!(second, parse_type(src).unwrap());
        assert_eq!(type_memo_stats().value_types, before.value_types + 1);
        assert_eq!(type_memo_stats().types, before.types, "the other table");
        let bad = "Array<MemoCast";
        let before = type_memo_stats();
        let e = value_type(bad).unwrap_err();
        assert_eq!(e, value_type(bad).unwrap_err());
        assert_eq!(e, parse_type(bad).unwrap_err());
        assert_eq!(delta(before), (0, 2), "errors are never memoised");
        assert_eq!(type_memo_stats().value_types, before.value_types);
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
