//! Seeded open-loop arrival schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Due times (nanoseconds from the start of the load phase) of a Poisson
/// arrival process at `rate` requests per second over `seconds`.
/// Identical for identical arguments.
pub fn poisson(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "rate and duration must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = seconds * 1e9;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize);
    let mut at = 0.0f64;
    loop {
        // Exponential gap; 1 - u lies in (0, 1], so ln never sees 0.
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate * 1e9;
        if at >= horizon {
            return due;
        }
        due.push(at as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_identical_for_a_seed() {
        assert_eq!(poisson(5_000.0, 2.0, 42), poisson(5_000.0, 2.0, 42));
        assert_ne!(poisson(5_000.0, 2.0, 42), poisson(5_000.0, 2.0, 43));
    }

    #[test]
    fn schedule_is_sorted_within_horizon_at_the_rate() {
        let due = poisson(10_000.0, 4.0, 7);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().expect("arrivals") < 4_000_000_000);
        // 40 000 expected arrivals; the Poisson sd is 200.
        assert!((39_000..41_000).contains(&due.len()), "{}", due.len());
    }
}
