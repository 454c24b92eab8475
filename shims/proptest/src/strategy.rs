//! Strategies: recipes for generating random test inputs.

use rand::Rng;

use crate::test_runner::TestRng;

/// A recipe for producing values of one type.
pub trait Strategy: Sized {
    /// The generated type; `Debug` so failing cases can be reported.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        O: std::fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` derives
    /// from it (dependent generation).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: std::fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform `bool` strategy (`any::<bool>()`).
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn new_value(&self, rng: &mut TestRng) -> bool {
        rng.rng.gen::<bool>()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(f64, u32, u64, usize, i32, i64);

// Narrow integer types go through a wider draw: the rand shim only
// implements `SampleRange` for word-sized integers.
macro_rules! impl_narrow_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.rng.gen_range(self.start as i64..self.end as i64) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.rng
                    .gen_range(*self.start() as i64..=*self.end() as i64) as $t
            }
        }
    )*};
}

impl_narrow_range_strategy!(u8, u16, i8, i16);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Length range for [`crate::collection::vec`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Inclusive lower bound.
    pub lo: usize,
    /// Inclusive upper bound.
    pub hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range");
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

/// See [`crate::collection::vec`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    pub(crate) element: S,
    pub(crate) size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let len = rng.rng.gen_range(self.size.lo..=self.size.hi);
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

/// `&str` regex strategies: `"[a-z]{1,12}"`-style patterns generate
/// matching `String`s. Supported syntax: literals, `\`-escapes,
/// character classes with ranges, and the `{m,n}` / `{n}` / `*` / `+` /
/// `?` repetitions. Anything fancier panics loudly.
impl Strategy for &str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

#[derive(Debug)]
enum Atom {
    Literal(char),
    Class(Vec<(char, char)>),
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let atom = match c {
            '[' => {
                let mut ranges: Vec<(char, char)> = Vec::new();
                loop {
                    let item = match chars.next() {
                        None => panic!("unterminated character class in `{pattern}`"),
                        Some(']') => break,
                        Some('\\') => {
                            chars.next().unwrap_or_else(|| panic!("dangling escape in `{pattern}`"))
                        }
                        Some(other) => other,
                    };
                    // A `-` between two items denotes a range (a trailing
                    // `-` is a literal).
                    if chars.peek() == Some(&'-') {
                        let mut lookahead = chars.clone();
                        lookahead.next(); // the '-'
                        match lookahead.peek() {
                            Some(&end) if end != ']' => {
                                chars.next();
                                chars.next();
                                assert!(
                                    item <= end,
                                    "inverted class range {item}-{end} in `{pattern}`"
                                );
                                ranges.push((item, end));
                                continue;
                            }
                            _ => {}
                        }
                    }
                    ranges.push((item, item));
                }
                assert!(!ranges.is_empty(), "empty character class in `{pattern}`");
                Atom::Class(ranges)
            }
            '\\' => Atom::Literal(
                chars.next().unwrap_or_else(|| panic!("dangling escape in `{pattern}`")),
            ),
            '(' | ')' | '|' => {
                panic!("regex strategy shim does not support groups/alternation: `{pattern}`")
            }
            other => Atom::Literal(other),
        };

        // Optional repetition suffix.
        let (lo, hi) = match chars.peek() {
            Some('{') => {
                chars.next();
                let spec: String = chars.by_ref().take_while(|&c| c != '}').collect();
                match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("repetition lower bound"),
                        hi.trim().parse().expect("repetition upper bound"),
                    ),
                    None => {
                        let n = spec.trim().parse().expect("repetition count");
                        (n, n)
                    }
                }
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            _ => (1, 1),
        };
        assert!(lo <= hi, "inverted repetition {{{lo},{hi}}} in `{pattern}`");

        let n = rng.rng.gen_range(lo..=hi);
        for _ in 0..n {
            match &atom {
                Atom::Literal(c) => out.push(*c),
                Atom::Class(ranges) => {
                    let total: u32 = ranges.iter().map(|&(a, b)| b as u32 - a as u32 + 1).sum();
                    let mut pick = rng.rng.gen_range(0..total);
                    for &(a, b) in ranges {
                        let span = b as u32 - a as u32 + 1;
                        if pick < span {
                            out.push(
                                char::from_u32(a as u32 + pick)
                                    .expect("class range stays in char space"),
                            );
                            break;
                        }
                        pick -= span;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    fn rng() -> TestRng {
        TestRng::seeded(99)
    }

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = rng();
        for _ in 0..1000 {
            let v = (3usize..10).new_value(&mut rng);
            assert!((3..10).contains(&v));
            let v = (0u8..5).new_value(&mut rng);
            assert!(v < 5);
            let v = (-2.5f64..2.5).new_value(&mut rng);
            assert!((-2.5..2.5).contains(&v));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = rng();
        let strat = (1usize..5)
            .prop_flat_map(|n| crate::collection::vec(0u32..10, n..=n).prop_map(move |v| (n, v)));
        for _ in 0..100 {
            let (n, v) = strat.new_value(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn vec_sizes_respect_bounds() {
        let mut rng = rng();
        let strat = crate::collection::vec(super::AnyBool, 2..6);
        for _ in 0..200 {
            let v = strat.new_value(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn regex_class_with_escapes() {
        let mut rng = rng();
        let strat = "[a-z\"']{1,12}";
        for _ in 0..300 {
            let s = Strategy::new_value(&strat, &mut rng);
            assert!((1..=12).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c == '"' || c == '\''), "{s:?}");
        }
    }

    #[test]
    fn regex_literals_and_repetitions() {
        let mut rng = rng();
        let s = Strategy::new_value(&"ab{3}c?", &mut rng);
        assert!(s.starts_with("abbb"));
        assert!(s == "abbb" || s == "abbbc");
        let s = Strategy::new_value(&"x[0-9]{2}", &mut rng);
        assert_eq!(s.len(), 3);
        assert!(s.starts_with('x'));
    }

    #[test]
    fn just_clones() {
        let mut rng = rng();
        assert_eq!(Just(7u32).new_value(&mut rng), 7);
    }
}
