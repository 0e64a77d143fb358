//! The three baseline schedulers the paper compares PLB-HeC against
//! (Section IV): StarPU-style greedy dispatch, Acosta et al.'s
//! relative-power iterative rebalancing, and Belviranli et al.'s HDSS.

pub mod acosta;
pub mod greedy;
pub mod hdss;
pub mod static_profile;

pub use acosta::AcostaPolicy;
pub use greedy::GreedyPolicy;
pub use hdss::HdssPolicy;
pub use static_profile::StaticProfilePolicy;

/// Scale the shares of the live units so they sum to 1, and zero
/// everyone else's. False, with `shares` untouched, when the live
/// shares sum to nothing. Both schedulers that keep a share per unit
/// (Acosta's fractions, HDSS's weights) renormalize through here, after
/// a rebalance and after losing a unit.
fn renormalize_live(shares: &mut [f64], live: impl Iterator<Item = bool> + Clone) -> bool {
    let held = shares.iter().zip(live.clone()).filter(|&(_, live)| live);
    let sum: f64 = held.map(|(share, _)| *share).sum();
    if sum > 0.0 {
        for (share, live) in shares.iter_mut().zip(live) {
            *share = if live { *share / sum } else { 0.0 };
        }
    }
    sum > 0.0
}

/// An equal share for every live unit, nothing for the rest.
fn spread_evenly(shares: &mut [f64], live: impl Iterator<Item = bool> + Clone) {
    let even = 1.0 / live.clone().filter(|&live| live).count().max(1) as f64;
    for (share, live) in shares.iter_mut().zip(live) {
        *share = if live { even } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renormalizing_sums_and_scales_the_live_shares_only() {
        // Unit 1 is gone but still holds a share — it finished a block
        // of the wave it was lost in.
        let mut shares = vec![0.1, 0.3, 0.3];
        let live = [true, false, true];
        assert!(renormalize_live(&mut shares, live.iter().copied()));
        assert_eq!(shares, [0.1 / (0.1 + 0.3), 0.0, 0.3 / (0.1 + 0.3)]);
        // The hand-rolled loops this replaced summed *every* share where
        // the dead ones were known to be zero already: a `+ 0.0` per
        // dead unit, which changes no bit of the sum.
        let mut shares = vec![0.2, 0.0, 0.7, 0.0];
        let every: f64 = shares.iter().sum();
        let live = [true, false, true, false];
        assert!(renormalize_live(&mut shares, live.iter().copied()));
        assert_eq!(shares, [0.2 / every, 0.0, 0.7 / every, 0.0]);
        assert_eq!(every.to_bits(), (0.2f64 + 0.7).to_bits());
    }

    #[test]
    fn nothing_to_renormalize_leaves_the_shares_alone() {
        let mut shares = vec![0.0, 0.4];
        assert!(!renormalize_live(&mut shares, [true, false].into_iter()));
        assert_eq!(shares, [0.0, 0.4]);
        spread_evenly(&mut shares, [true, false].into_iter());
        assert_eq!(shares, [1.0, 0.0]);
        let mut shares = vec![9.0; 4];
        spread_evenly(&mut shares, [true, false, true, true].into_iter());
        assert_eq!(shares, [1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0 / 3.0]);
        spread_evenly(&mut shares, [false; 4].into_iter());
        assert_eq!(shares, [0.0; 4]);
    }
}
