//! The workspace's one seeded mixer: splitmix64.
//!
//! The simulator's retry jitter and fault plans, the live site's redial
//! jitter and nemesis, and the seeded programs of the differential
//! matrix, the engine bench and the chaos soak all draw from
//! [`splitmix64`].

/// The splitmix64 increment, ⌊2⁶⁴/φ⌋. A caller that keeps a stream
/// advances its state by this after each draw.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output for `state`: `state + γ`, mixed (Steele, Lea and
/// Flood, 2014). Pure, so a draw is reproducible on any platform. A
/// stream is `splitmix64(s)`, `splitmix64(s + γ)`, … — its caller adds
/// [`SPLITMIX64_GAMMA`] to its own state between draws.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // The first outputs of the reference generator seeded with 0
        // (`SplitMix64` in Vigna's `splitmix64.c`).
        let mut state = 0u64;
        let mut next = || {
            let z = splitmix64(state);
            state = state.wrapping_add(SPLITMIX64_GAMMA);
            z
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(next(), 0x06C4_5D18_8009_454F);
    }
}
