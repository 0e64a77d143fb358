//! Checked float → integer conversions.
//!
//! The workspace's `cargo xtask lint` pass forbids `as` casts to
//! narrower numeric types anywhere in `plb-numerics` / `plb-ipm`
//! *except* this module: a bare `pos as usize` silently saturates on
//! NaN, negative, or oversized values — exactly the kind of quiet
//! corruption a profiling-driven balancer cannot debug after the fact.
//! These helpers centralize the guard so call sites state their intent
//! and receive an explicit `None` on out-of-domain input.

/// Largest `f64` a `usize` conversion is allowed to see. (At this exact
/// boundary the guarded cast below clamps to `usize::MAX`; Rust
/// float-to-int `as` casts saturate.)
const MAX_USIZE_F: f64 = usize::MAX as f64;

/// `x.floor()` as a `usize`; `None` when `x` is NaN, negative, or too
/// large to represent.
pub fn floor_usize(x: f64) -> Option<usize> {
    let f = x.floor();
    if !f.is_finite() || !(0.0..=MAX_USIZE_F).contains(&f) {
        return None;
    }
    // Guarded above: finite, non-negative, in range.
    Some(f as usize)
}

/// `x.ceil()` as a `usize`; `None` when `x` is NaN, negative, or too
/// large to represent.
pub fn ceil_usize(x: f64) -> Option<usize> {
    let c = x.ceil();
    if !c.is_finite() || !(0.0..=MAX_USIZE_F).contains(&c) {
        return None;
    }
    // Guarded above: finite, non-negative, in range.
    Some(c as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_convert() {
        assert_eq!(floor_usize(3.7), Some(3));
        assert_eq!(ceil_usize(3.2), Some(4));
        assert_eq!(floor_usize(0.0), Some(0));
        assert_eq!(ceil_usize(0.0), Some(0));
    }

    #[test]
    fn out_of_domain_values_are_refused() {
        assert_eq!(floor_usize(f64::NAN), None);
        assert_eq!(ceil_usize(f64::NAN), None);
        assert_eq!(floor_usize(-0.5), None);
        assert_eq!(ceil_usize(-1.5), None);
        assert_eq!(floor_usize(f64::INFINITY), None);
        assert_eq!(floor_usize(1e300), None);
    }

    #[test]
    fn negative_zero_is_in_domain() {
        // ceil(-0.5) is -0.0, which equals 0.0 and must convert.
        assert_eq!(ceil_usize(-0.0), Some(0));
        assert_eq!(floor_usize(-0.0), Some(0));
    }
}
