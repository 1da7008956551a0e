//! Walker's alias method for O(1) sampling from a discrete distribution.
//!
//! The E-LINE trainer draws millions of edges (∝ weight) and negative nodes
//! (∝ degree^{3/4}) per epoch; the alias method gives constant-time draws
//! after O(n) preprocessing.

use rand::Rng;

/// A pre-processed discrete distribution supporting O(1) sampling.
///
/// # Examples
///
/// ```
/// use grafics_graph::AliasTable;
/// use rand::SeedableRng;
///
/// let table = AliasTable::new(&[1.0, 3.0]).unwrap();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut counts = [0usize; 2];
/// for _ in 0..10_000 {
///     counts[table.sample(&mut rng)] += 1;
/// }
/// // index 1 carries 75% of the mass
/// assert!(counts[1] > 7_000 && counts[1] < 8_000);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds a table from unnormalised non-negative weights.
    ///
    /// Returns `None` if `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() || weights.len() > u32::MAX as usize {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if !total.is_finite() || total <= 0.0 || weights.iter().any(|&w| w.is_nan() || w < 0.0) {
            return None;
        }
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical stragglers: everything left has probability ~1.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        Some(AliasTable { prob, alias })
    }

    /// Number of outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` if the table has no outcomes (never: construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// `true` if the table is usable over a space of `slots` outcomes:
    /// non-empty, at most `slots` long, with every alias inside itself.
    /// Checks a table read from a file before it serves a draw.
    pub(crate) fn fits(&self, slots: usize) -> bool {
        !self.prob.is_empty()
            && self.prob.len() <= slots
            && self.alias.len() == self.prob.len()
            && self.alias.iter().all(|&a| (a as usize) < self.prob.len())
    }

    /// Draws one index in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Draws one index from a single pre-drawn 64-bit random word: the
    /// high 32 bits select the column (fixed-point multiply, no division),
    /// the low 32 bits decide between the column and its alias.
    ///
    /// This halves the RNG draws of [`AliasTable::sample`] (which needs a
    /// bounded integer *and* a float), which matters when the Hogwild
    /// trainer samples tens of millions of edges and negatives per second.
    ///
    /// The draw is branch-free: both `prob[i]` and `alias[i]` are loaded
    /// unconditionally and the coin picks between `i` and the alias with
    /// [`std::hint::select_unpredictable`] (a conditional move), because
    /// the coin is a fresh random bit the predictor cannot learn. The
    /// result equals the branchy `if coin < prob[i] { i } else { alias[i] }`
    /// for every `raw`.
    #[must_use]
    #[inline]
    pub fn sample_with(&self, raw: u64) -> usize {
        let n = self.prob.len() as u64;
        let i = (((raw >> 32) * n) >> 32) as usize;
        let coin = (raw & 0xffff_ffff) as f64 * (1.0 / 4_294_967_296.0);
        let alias = self.alias[i] as usize;
        std::hint::select_unpredictable(coin < self.prob[i], i, alias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -1.0]).is_none());
        assert!(AliasTable::new(&[f64::NAN]).is_none());
        assert!(AliasTable::new(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[5.0]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_entries_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 2.0]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let s = t.sample(&mut rng);
            assert!(s == 1 || s == 3);
        }
    }

    #[test]
    fn empirical_distribution_matches() {
        let weights = [0.5, 1.5, 3.0, 5.0];
        let total: f64 = weights.iter().sum();
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for i in 0..4 {
            let expected = weights[i] / total;
            let observed = counts[i] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "outcome {i}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn sample_with_matches_distribution() {
        use rand::RngCore;
        let weights = [1.0, 3.0, 0.0, 4.0];
        let total: f64 = weights.iter().sum();
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[t.sample_with(rng.next_u64())] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight outcome drawn");
        for i in [0usize, 1, 3] {
            let expected = weights[i] / total;
            let observed = counts[i] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "outcome {i}: observed {observed}, expected {expected}"
            );
        }
    }

    /// The branchy draw `sample_with` replaced, kept as the oracle.
    fn branchy(t: &AliasTable, raw: u64) -> usize {
        let n = t.prob.len() as u64;
        let i = (((raw >> 32) * n) >> 32) as usize;
        let coin = (raw & 0xffff_ffff) as f64 * (1.0 / 4_294_967_296.0);
        if coin < t.prob[i] {
            i
        } else {
            t.alias[i] as usize
        }
    }

    proptest::proptest! {
        /// The branch-free draw equals the branchy one for any table built
        /// from non-negative weights (zeros included) and any raw word.
        #[test]
        fn sample_with_matches_branchy_reference(
            weights in proptest::collection::vec(
                proptest::option::weighted(0.8, 0.0f64..10.0),
                1..40,
            ),
            raws in proptest::collection::vec(proptest::any::<u64>(), 64..65),
        ) {
            let weights: Vec<f64> = weights.into_iter().map(|w| w.unwrap_or(0.0)).collect();
            proptest::prop_assume!(weights.iter().any(|&w| w > 0.0));
            let t = AliasTable::new(&weights).unwrap();
            for raw in raws {
                proptest::prop_assert_eq!(t.sample_with(raw), branchy(&t, raw));
            }
        }
    }

    /// Boundary coins: a column's `prob` that is an exact multiple of
    /// 2⁻³² is hit exactly by one coin (which must take the alias, the
    /// comparison being strict), `prob = 1.0` always keeps the column
    /// and `prob = 0.0` always takes the alias, even at coin 0.
    #[test]
    fn sample_with_boundary_coins() {
        let two32 = 4_294_967_296.0;
        let t = AliasTable {
            prob: vec![0.5, 3.0 / two32, 1.0, 0.0, (two32 - 1.0) / two32],
            alias: vec![2, 2, 2, 4, 2],
        };
        let n = t.prob.len() as u64;
        // The smallest raw word (coin 0) that selects column `i`.
        let col = |i: u64| (i << 32).div_ceil(n) << 32;
        for i in 0..n {
            assert_eq!(
                t.sample_with(col(i)) == i as usize,
                t.prob[i as usize] > 0.0
            );
            let p = t.prob[i as usize];
            let at = (p * two32).min(two32 - 1.0) as u64;
            let mut lows = vec![0, 1, at.saturating_sub(1), at, at + 1, 0xffff_ffff];
            lows.retain(|&l| l <= 0xffff_ffff);
            for low in lows {
                let raw = col(i) | low;
                let coin = low as f64 / two32;
                let want = if coin < p {
                    i as usize
                } else {
                    t.alias[i as usize] as usize
                };
                assert_eq!(t.sample_with(raw), want, "column {i}, low {low:#x}");
                assert_eq!(t.sample_with(raw), branchy(&t, raw));
            }
        }
        // Exact-tie coins take the alias.
        assert_eq!(t.sample_with(1 << 31), 2);
        assert_eq!(t.sample_with(col(1) | 3), 2);
        // prob = 1.0 keeps its column at the largest coin, prob = 0.0
        // takes its alias at the smallest.
        assert_eq!(t.sample_with(col(2) | 0xffff_ffff), 2);
        assert_eq!(t.sample_with(col(3)), 4);
    }

    #[test]
    fn uniform_weights() {
        let t = AliasTable::new(&[1.0; 10]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0);
        }
    }
}
