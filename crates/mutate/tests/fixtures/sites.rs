//! Fixture: expected mutation sites. A slash-slash-tilde marker names
//! the distinct operators that must enumerate on its line; a line with
//! no marker must enumerate none. Driven by `tests/ops_fixture.rs`.

pub fn thresholds(a: u64, dark: u64) -> bool {
    a >= 10 && dark < 20 //~ cmp-swap lit-bump logic-swap
}

pub fn equality(a: u64, b: u64) -> bool {
    a == b || a != 0 //~ cmp-swap lit-bump logic-swap
}

pub fn arithmetic(a: u64, b: u64) -> u64 {
    a * b + a / 2 - 1 //~ arith-swap
}

pub fn compound(mut acc: u64, x: u64) -> u64 {
    acc += x; //~ arith-swap
    acc
}

pub fn saturation(a: u64) -> u64 {
    a.saturating_add(1).wrapping_mul(2) //~ sat-wrap
}

pub fn generics(v: Vec<u32>) -> Option<u32> {
    v.into_iter().next()
}

pub fn turbofish(v: &[u64]) -> usize {
    v.iter().copied().collect::<Vec<u64>>().len()
}

pub fn references(a: &u64, b: &mut u64) -> u64 {
    *b = *a;
    *a
}

pub fn strings() -> &'static str {
    // a >= b && c < d inside a comment is not a site
    "x < y && z == w"
}

#[cfg(test)]
mod tests {
    #[test]
    fn juicy_ops_in_test_code_are_skipped() {
        assert!(1 < 2 && 3 >= 3 || 4 != 5);
        assert_eq!(2 + 2, 2 * 2);
    }
}
