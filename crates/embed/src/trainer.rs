//! Offline training (§IV-B) and online node embedding (§V-A).

use crate::config::{EmbedError, EmbeddingConfig, Objective};
use crate::model::{EmbeddingModel, Space};
use crate::sgd;
use grafics_graph::{AliasTable, BipartiteGraph, NegativeSampler, NodeIdx};
use rand::Rng;

/// Trains LINE / E-LINE embeddings over a [`BipartiteGraph`].
///
/// The trainer samples edges proportionally to their weight `c_ij` and
/// negatives proportionally to `d_z^{3/4}` (Eq. (10)). Each sampled
/// *undirected* edge is processed in both directions, matching the paper's
/// symmetric objective over `i ∈ M ∪ V, j ∈ N(i)`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ElineTrainer {
    config: EmbeddingConfig,
}

impl ElineTrainer {
    /// Creates a trainer with the given hyper-parameters.
    #[must_use]
    pub fn new(config: EmbeddingConfig) -> Self {
        ElineTrainer { config }
    }

    /// The trainer's configuration.
    #[must_use]
    pub fn config(&self) -> &EmbeddingConfig {
        &self.config
    }

    /// Changes the worker-thread budget for subsequent
    /// [`ElineTrainer::train`] calls (clamped to at least 1): `1` selects
    /// the exact serial trainer, `>= 2` the Hogwild path. Lets a
    /// deployment re-thread a deserialised model for the hardware it is
    /// served on.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// Learns embeddings for every node of `graph` from scratch.
    ///
    /// With [`EmbeddingConfig::threads`] `== 1` (the default) this runs the
    /// exact serial trainer; with `threads >= 2` it runs the lock-free
    /// Hogwild trainer (see [`crate`] docs), which reaches the same
    /// converged quality but is not bit-reproducible across runs because
    /// worker updates interleave nondeterministically.
    ///
    /// # Errors
    ///
    /// - [`EmbedError::InvalidConfig`] if the configuration is out of range.
    /// - [`EmbedError::EmptyGraph`] if the graph has no edges.
    pub fn train<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        rng: &mut R,
    ) -> Result<EmbeddingModel, EmbedError> {
        if self.config.threads > 1 {
            self.config.validate()?;
            crate::parallel::train_hogwild(&self.config, graph, rng)
        } else {
            self.train_with_stats(graph, rng).map(|(model, _)| model)
        }
    }

    /// Like [`ElineTrainer::train`], additionally recording a convergence
    /// trace: ten checkpoints of the estimated positive-pair loss
    /// `−log σ(u'_j · u_i)` over a fixed probe set of edges. Useful for
    /// tuning `epochs` on a new corpus.
    ///
    /// Always runs the *serial* trainer regardless of
    /// [`EmbeddingConfig::threads`]: the probe trace is only meaningful
    /// over a deterministic sample order. Its output bits — model, trace
    /// and the RNG's position afterwards — are pinned by golden hashes
    /// (`trainer/golden.rs`).
    ///
    /// # Errors
    ///
    /// Same as [`ElineTrainer::train`].
    pub fn train_with_stats<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        rng: &mut R,
    ) -> Result<(EmbeddingModel, TrainingStats), EmbedError> {
        self.config.validate()?;
        match self.config.dim {
            4 => self.train_serial::<4, R>(graph, rng),
            8 => self.train_serial::<8, R>(graph, rng),
            16 => self.train_serial::<16, R>(graph, rng),
            _ => self.train_serial::<0, R>(graph, rng),
        }
    }

    /// The serial trainer, monomorphised over the embedding dimension
    /// like the online loop: d = 4/8/16 run [`sgd::step`] on
    /// register-held rows, every other dimension runs the runtime-length
    /// (`DIM == 0`) instance of the same step.
    fn train_serial<const DIM: usize, R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        rng: &mut R,
    ) -> Result<(EmbeddingModel, TrainingStats), EmbedError> {
        let (edges, weights) = graph.edge_list();
        let edge_alias = AliasTable::new(&weights).ok_or(EmbedError::EmptyGraph)?;
        let neg_alias =
            AliasTable::new(&graph.negative_sampling_weights(self.config.negative_exponent))
                .ok_or(EmbedError::EmptyGraph)?;

        let cfg = &self.config;
        let mut model = EmbeddingModel::init(graph.node_capacity(), cfg.dim, rng);
        let mut negatives = Vec::with_capacity(cfg.negatives);
        let mut scratch = vec![0.0f32; if DIM == 0 { 2 * cfg.dim } else { 0 }];
        let terms = objective_terms(cfg.objective);
        let dropout = cfg.dropout as f32;

        // Fixed probe set for the convergence trace: edges plus frozen
        // negatives, so the traced quantity is an unbiased estimate of the
        // Eq. (10) objective on a constant mini-corpus.
        let probe: Vec<(usize, Vec<NodeIdx>)> = (0..edges.len().min(256))
            .map(|_| {
                let e = edge_alias.sample(rng);
                let mut negs = Vec::with_capacity(cfg.negatives);
                sample_negatives(
                    &neg_alias,
                    edges[e].record,
                    edges[e].mac,
                    cfg.negatives,
                    &mut negs,
                    rng,
                );
                (e, negs)
            })
            .collect();
        let mut stats = TrainingStats {
            checkpoints: Vec::with_capacity(11),
        };
        let total = cfg.epochs.saturating_mul(edges.len()).max(1);
        let checkpoint_every = (total / 10).max(1);
        for t in 0..total {
            if t % checkpoint_every == 0 {
                stats
                    .checkpoints
                    .push((t, probe_loss(&model, &edges, &probe)));
            }
            let lr = self.lr_at(t, total);
            let e = edges[edge_alias.sample(rng)];
            for (i, j) in [(e.record, e.mac), (e.mac, e.record)] {
                sample_negatives(&neg_alias, i, j, cfg.negatives, &mut negatives, rng);
                for &(src, tgt) in terms {
                    sgd::step::<DIM, R>(
                        &mut model,
                        (src, i),
                        (tgt, j),
                        &negatives,
                        lr,
                        dropout,
                        &mut scratch,
                        rng,
                    );
                }
            }
        }
        debug_assert!(model.all_finite());
        stats
            .checkpoints
            .push((total, probe_loss(&model, &edges, &probe)));
        Ok((model, stats))
    }

    /// Embeds one *new* node (typically a freshly inserted record, §V-A)
    /// while every other node's embeddings stay frozen, which keeps online
    /// inference cheap and deterministic with respect to the trained model.
    ///
    /// The caller must already have inserted the node into `graph`;
    /// `model` is grown to the graph's current capacity automatically.
    ///
    /// This convenience form builds a fresh [`NegativeSampler`] over the
    /// whole graph (O(n)) per call. Serving-path callers should hold an
    /// incrementally synced sampler and reusable [`crate::OnlineScratch`]
    /// and call [`ElineTrainer::embed_new_node_with`] instead, which
    /// costs O(deg) per query.
    ///
    /// # Errors
    ///
    /// - [`EmbedError::InvalidConfig`] if the configuration is out of range.
    /// - [`EmbedError::IsolatedNode`] if the node has no incident edges —
    ///   per §V footnote 1, such samples were likely collected outside the
    ///   building and should be discarded by the caller.
    pub fn embed_new_node<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        model: &mut EmbeddingModel,
        node: NodeIdx,
        rng: &mut R,
    ) -> Result<(), EmbedError> {
        let neg = NegativeSampler::from_graph(graph, self.config.negative_exponent);
        let mut scratch = crate::OnlineScratch::new();
        self.embed_new_node_with(graph, model, node, &neg, &mut scratch, rng)
    }

    #[inline]
    fn lr_at(&self, t: usize, total: usize) -> f32 {
        self.config.lr_at(t, total)
    }
}

/// A convergence trace: `(samples processed, probe loss)` pairs.
///
/// The probe loss is the mean `−log σ(u'_mac · u_record)` over a fixed
/// random set of edges — the positive part of Eq. (10). It should fall
/// steeply early in training and flatten once the embeddings converge.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainingStats {
    /// `(samples, loss)` checkpoints, in training order.
    pub checkpoints: Vec<(usize, f64)>,
}

impl TrainingStats {
    /// Loss at the first checkpoint (random init).
    #[must_use]
    pub fn initial_loss(&self) -> f64 {
        self.checkpoints.first().map_or(f64::NAN, |&(_, l)| l)
    }

    /// Loss at the last checkpoint (end of training).
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        self.checkpoints.last().map_or(f64::NAN, |&(_, l)| l)
    }
}

/// Mean Eq.-(10)-style objective estimate over the probe set:
/// `−log σ(u'_mac · u_record) − Σ_z log σ(−u'_z · u_record)` with the
/// probe's frozen negatives `z`.
fn probe_loss(
    model: &EmbeddingModel,
    edges: &[grafics_graph::EdgeRef],
    probe: &[(usize, Vec<NodeIdx>)],
) -> f64 {
    if probe.is_empty() {
        return f64::NAN;
    }
    let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(&x, &y)| x * y).sum() };
    let nll = |x: f32| -> f64 { -f64::from(crate::sgd::sigmoid(x)).max(1e-9).ln() };
    let mut sum = 0.0;
    for (idx, negs) in probe {
        let e = edges[*idx];
        sum += nll(dot(model.ego(e.record), model.context(e.mac)));
        for &z in negs {
            sum += nll(-dot(model.ego(e.record), model.context(z)));
        }
    }
    sum / probe.len() as f64
}

/// The directed terms that one sampled pair `(i, j)` trains, in order,
/// as `(space of i's source row, space of j's target row)`; each term's
/// negatives are rows of the target's space.
fn objective_terms(objective: Objective) -> &'static [(Space, Space)] {
    match objective {
        Objective::LineFirst => &[(Space::Ego, Space::Ego)],
        Objective::LineSecond => &[(Space::Ego, Space::Context)],
        // The first-order term on the ego space, plus the second-order
        // term, jointly.
        Objective::LineBoth => &[(Space::Ego, Space::Ego), (Space::Ego, Space::Context)],
        // The second-order term Pr(u'_j | u_i) (Eq. (5)), then its
        // mirror Pr(u_j | u'_i) (Eq. (8)).
        Objective::ELine => &[(Space::Ego, Space::Context), (Space::Context, Space::Ego)],
    }
}

/// Draws `k` negative nodes, rejecting the endpoints of the positive pair.
fn sample_negatives<R: Rng + ?Sized>(
    alias: &AliasTable,
    i: NodeIdx,
    j: NodeIdx,
    k: usize,
    out: &mut Vec<NodeIdx>,
    rng: &mut R,
) {
    crate::sgd::fill_rejecting(k, out, || {
        let z = NodeIdx(alias.sample(rng) as u32);
        (z != i && z != j).then_some(z)
    });
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use grafics_graph::WeightFunction;
    use grafics_types::{MacAddr, Reading, Rssi, SignalRecord};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rec(macs: &[u64]) -> SignalRecord {
        SignalRecord::new(
            macs.iter()
                .map(|&m| Reading::new(MacAddr::from_u64(m), Rssi::new(-60.0).unwrap()))
                .collect(),
        )
        .unwrap()
    }

    /// Two "floors": floor A records use MACs 0..10, floor B records use
    /// MACs 100..110. Returns (graph, floor-A record nodes, floor-B record
    /// nodes). Records within a floor share MACs only transitively.
    fn two_floor_graph(rng: &mut ChaCha8Rng) -> (BipartiteGraph, Vec<NodeIdx>, Vec<NodeIdx>) {
        use rand::seq::SliceRandom;
        let mut g = BipartiteGraph::new(WeightFunction::default());
        let mut a = Vec::new();
        let mut b = Vec::new();
        let pool_a: Vec<u64> = (0..10).collect();
        let pool_b: Vec<u64> = (100..110).collect();
        for k in 0..20 {
            let pool = if k % 2 == 0 { &pool_a } else { &pool_b };
            let macs: Vec<u64> = pool.choose_multiple(rng, 4).copied().collect();
            let rid = g.add_record(&rec(&macs));
            let node = g.record_node(rid).unwrap();
            if k % 2 == 0 {
                a.push(node);
            } else {
                b.push(node);
            }
        }
        (g, a, b)
    }

    fn mean_dist(model: &EmbeddingModel, xs: &[NodeIdx], ys: &[NodeIdx]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &x in xs {
            for &y in ys {
                if x != y {
                    sum += model.ego_distance(x, y);
                    n += 1;
                }
            }
        }
        sum / n as f64
    }

    #[test]
    fn eline_separates_communities() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (g, a, b) = two_floor_graph(&mut rng);
        let cfg = EmbeddingConfig {
            dim: 8,
            epochs: 80,
            ..Default::default()
        };
        let model = ElineTrainer::new(cfg).train(&g, &mut rng).unwrap();
        assert!(model.all_finite());
        let intra = (mean_dist(&model, &a, &a) + mean_dist(&model, &b, &b)) / 2.0;
        let inter = mean_dist(&model, &a, &b);
        assert!(
            inter > 1.5 * intra,
            "inter-floor distance {inter} should exceed 1.5x intra {intra}"
        );
    }

    #[test]
    fn line_second_also_separates_but_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (g, a, b) = two_floor_graph(&mut rng);
        let cfg = EmbeddingConfig {
            dim: 8,
            epochs: 80,
            objective: Objective::LineSecond,
            ..Default::default()
        };
        let model = ElineTrainer::new(cfg).train(&g, &mut rng).unwrap();
        let intra = (mean_dist(&model, &a, &a) + mean_dist(&model, &b, &b)) / 2.0;
        let inter = mean_dist(&model, &a, &b);
        assert!(
            inter > intra,
            "LINE-2nd should still separate: inter {inter} vs intra {intra}"
        );
    }

    #[test]
    fn line_both_trains_and_supports_online() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (mut g, a, _) = two_floor_graph(&mut rng);
        let cfg = EmbeddingConfig {
            dim: 8,
            epochs: 30,
            objective: Objective::LineBoth,
            ..Default::default()
        };
        let trainer = ElineTrainer::new(cfg);
        let mut model = trainer.train(&g, &mut rng).unwrap();
        assert!(model.all_finite());
        let rid = g.add_record(&rec(&[0, 1, 2, 3]));
        let node = g.record_node(rid).unwrap();
        trainer
            .embed_new_node(&g, &mut model, node, &mut rng)
            .unwrap();
        assert!(model.all_finite());
        let _ = a;
    }

    #[test]
    fn line_first_trains_without_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (g, _, _) = two_floor_graph(&mut rng);
        let cfg = EmbeddingConfig {
            dim: 4,
            epochs: 10,
            objective: Objective::LineFirst,
            ..Default::default()
        };
        let model = ElineTrainer::new(cfg).train(&g, &mut rng).unwrap();
        assert!(model.all_finite());
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = BipartiteGraph::new(WeightFunction::default());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let err = ElineTrainer::new(EmbeddingConfig::default()).train(&g, &mut rng);
        assert_eq!(err.unwrap_err(), EmbedError::EmptyGraph);
    }

    #[test]
    fn invalid_config_is_an_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (g, _, _) = two_floor_graph(&mut rng);
        let cfg = EmbeddingConfig {
            dim: 0,
            ..Default::default()
        };
        assert!(matches!(
            ElineTrainer::new(cfg).train(&g, &mut rng),
            Err(EmbedError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn online_embedding_freezes_existing_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let (mut g, a, _) = two_floor_graph(&mut rng);
        let trainer = ElineTrainer::new(EmbeddingConfig {
            epochs: 40,
            ..Default::default()
        });
        let mut model = trainer.train(&g, &mut rng).unwrap();
        let frozen_before: Vec<f32> = model.ego(a[0]).to_vec();

        let rid = g.add_record(&rec(&[0, 1, 2, 3]));
        let node = g.record_node(rid).unwrap();
        trainer
            .embed_new_node(&g, &mut model, node, &mut rng)
            .unwrap();
        assert_eq!(
            model.ego(a[0]),
            frozen_before.as_slice(),
            "existing rows must not move"
        );
        assert!(model.all_finite());
    }

    #[test]
    fn online_embedding_lands_near_own_floor() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (mut g, a, b) = two_floor_graph(&mut rng);
        let trainer = ElineTrainer::new(EmbeddingConfig {
            epochs: 80,
            ..Default::default()
        });
        let mut model = trainer.train(&g, &mut rng).unwrap();

        // New record from floor A's MAC pool.
        let rid = g.add_record(&rec(&[0, 2, 4, 6]));
        let node = g.record_node(rid).unwrap();
        trainer
            .embed_new_node(&g, &mut model, node, &mut rng)
            .unwrap();

        let to_a = mean_dist(&model, &[node], &a);
        let to_b = mean_dist(&model, &[node], &b);
        assert!(
            to_a < to_b,
            "new floor-A record is nearer A ({to_a}) than B ({to_b})"
        );
    }

    #[test]
    fn isolated_node_rejected_online() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let (mut g, _, _) = two_floor_graph(&mut rng);
        let trainer = ElineTrainer::new(EmbeddingConfig::default());
        let mut model = trainer.train(&g, &mut rng).unwrap();
        // A record whose only MAC is brand new has edges only to that new
        // MAC; removing the MAC isolates the record node.
        let rid = g.add_record(&rec(&[999]));
        g.remove_mac(MacAddr::from_u64(999)).unwrap();
        let node = g.record_node(rid).unwrap();
        let err = trainer.embed_new_node(&g, &mut model, node, &mut rng);
        assert_eq!(err.unwrap_err(), EmbedError::IsolatedNode);
    }

    #[test]
    fn training_stats_show_convergence() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let (g, _, _) = two_floor_graph(&mut rng);
        let cfg = EmbeddingConfig {
            epochs: 80,
            ..Default::default()
        };
        let (_, stats) = ElineTrainer::new(cfg)
            .train_with_stats(&g, &mut rng)
            .unwrap();
        assert!(stats.checkpoints.len() >= 10);
        assert!(
            stats.final_loss() < stats.initial_loss(),
            "loss should fall: {} -> {}",
            stats.initial_loss(),
            stats.final_loss()
        );
        // Checkpoints in sample order.
        assert!(stats.checkpoints.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(stats.final_loss().is_finite());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let mut rng1 = ChaCha8Rng::seed_from_u64(42);
        let (g1, a, _) = two_floor_graph(&mut rng1);
        let cfg = EmbeddingConfig {
            epochs: 10,
            ..Default::default()
        };
        let m1 = ElineTrainer::new(cfg).train(&g1, &mut rng1).unwrap();

        let mut rng2 = ChaCha8Rng::seed_from_u64(42);
        let (g2, _, _) = two_floor_graph(&mut rng2);
        let m2 = ElineTrainer::new(cfg).train(&g2, &mut rng2).unwrap();
        assert_eq!(m1.ego(a[0]), m2.ego(a[0]));
    }
}
