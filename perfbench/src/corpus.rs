//! Seeded inputs: simulated building fleets, their training splits and
//! the held-out scans the workloads serve. `grafics-data` is only the
//! load generator here; every model comes from `Grafics::train`.

use grafics_core::{Grafics, GraficsConfig};
use grafics_data::{BuildingModel, FleetPreset};
use grafics_graph::NodeIdx;
use grafics_types::{BuildingId, Dataset, FloorId, MacAddr, SignalRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shards are trained this many at a time while a workload builds its
/// fleet, as `fleet train` does on the two cores the benchmark is sized
/// for. Each shard trains with `threads: 1`, so models (and therefore
/// every quality metric) are identical across runs of one seed.
pub const TRAIN_WORKERS: usize = 2;

/// One held-out scan: where it was taken and what it heard.
#[derive(Debug, Clone)]
pub struct Query {
    pub building: BuildingId,
    pub floor: FloorId,
    pub record: SignalRecord,
}

/// A simulated fleet: each building's labelled training split, plus the
/// held-out scans of every building, in building order.
pub struct Corpus {
    pub train: Vec<(BuildingId, Dataset)>,
    pub queries: Vec<Query>,
}

/// Seed of the building populations. The buildings (floor counts, plate
/// sizes, AP densities) are the deployment and stay the same in every
/// run; the run's seed draws what varies between measurements: AP
/// layouts, crowdsourced scans, splits, labelled samples and client
/// order. Seeds then move the workload's cost only as much as fresh
/// scans of the same buildings would.
const POPULATION_SEED: u64 = 0x0067_7261_6669_6373;

/// The five Hong Kong archetypes: two towers, a hospital and two malls.
pub fn hong_kong(records_per_floor: usize) -> Vec<BuildingModel> {
    let mut rng = ChaCha8Rng::seed_from_u64(POPULATION_SEED);
    FleetPreset::HongKong.generate(5, records_per_floor, &mut rng)
}

/// `buildings` buildings drawn from the Hangzhou (Microsoft) population.
pub fn microsoft(buildings: usize, records_per_floor: usize) -> Vec<BuildingModel> {
    let mut rng = ChaCha8Rng::seed_from_u64(POPULATION_SEED);
    FleetPreset::Microsoft.generate(buildings, records_per_floor, &mut rng)
}

fn building_seed(seed: u64, building: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((building as u64) << 32)
}

/// Simulates every building, splits 70/30 and keeps four labels per
/// floor in the training split.
pub fn simulate(models: &[BuildingModel], seed: u64) -> Corpus {
    let mut train = Vec::with_capacity(models.len());
    let mut queries = Vec::new();
    for (b, model) in models.iter().enumerate() {
        let id = BuildingId(u32::try_from(b).expect("fleet fits u32 ids"));
        let mut rng = ChaCha8Rng::seed_from_u64(building_seed(seed, b));
        let ds = model.simulate(&mut rng).filter_rare_macs(2);
        let split = ds
            .split(0.7, &mut rng)
            .expect("simulated buildings split 70/30");
        let labelled = split.train.with_label_budget(4, &mut rng);
        // A scan that hears none of its building's training MACs is
        // rejected by design (outside the building); keep only scans
        // every operation can succeed on.
        let known: HashSet<MacAddr> = labelled.mac_vocabulary().into_iter().collect();
        queries.extend(
            split
                .test
                .samples()
                .iter()
                .filter(|s| s.record.macs().any(|m| known.contains(&m)))
                .map(|s| Query {
                    building: id,
                    floor: s.ground_truth,
                    record: s.record.clone(),
                }),
        );
        train.push((id, labelled));
    }
    Corpus { train, queries }
}

fn train_shard(
    corpus: &Corpus,
    config: &GraficsConfig,
    seed: u64,
    b: usize,
) -> (BuildingId, Grafics) {
    let (id, train) = &corpus.train[b];
    let mut rng = ChaCha8Rng::seed_from_u64(building_seed(seed ^ 0x7472_6169_6e00, b));
    let model = crate::trace::span("core.train_shard", u64::from(id.0), || {
        Grafics::train(train, config, &mut rng)
    })
    .expect("simulated buildings train");
    (*id, model)
}

/// Trains the shards at positions `shards` of `corpus.train`,
/// [`TRAIN_WORKERS`] at a time, untimed; returns the models in building
/// order. A shard's model depends only on the seed and its position, so
/// training it again gives the same model.
pub fn train(
    corpus: &Corpus,
    config: &GraficsConfig,
    seed: u64,
    shards: &[usize],
) -> Vec<(BuildingId, Grafics)> {
    let next = AtomicUsize::new(0);
    let trained: Mutex<Vec<(BuildingId, Grafics)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..TRAIN_WORKERS {
            scope.spawn(|| {
                while let Some(&b) = shards.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let model = train_shard(corpus, config, seed, b);
                    trained.lock().expect("trainer poisoned").push(model);
                }
                crate::trace::flush_thread();
            });
        }
    });
    let mut models = trained.into_inner().expect("trainer poisoned");
    models.sort_by_key(|(id, _)| *id);
    models
}

/// [`train`] on the calling thread alone, one shard after another;
/// returns the models in `shards` order and the CPU seconds they took.
pub fn train_timed(
    corpus: &Corpus,
    config: &GraficsConfig,
    seed: u64,
    shards: &[usize],
) -> (Vec<(BuildingId, Grafics)>, f64) {
    let started = crate::cpu::thread();
    let models = shards
        .iter()
        .map(|&b| train_shard(corpus, config, seed, b))
        .collect();
    (models, crate::cpu::thread() - started)
}

/// Every shard of the corpus, for [`train`].
pub fn all_shards(corpus: &Corpus) -> Vec<usize> {
    (0..corpus.train.len()).collect()
}

/// An FNV-1a hash of the bits of every embedding row of `model`: equal
/// for two trainings only if they produced the same model.
pub fn fingerprint(model: &Grafics) -> u64 {
    let embeddings = model.embeddings();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for row in 0..embeddings.rows() {
        let node = NodeIdx(u32::try_from(row).expect("node ids fit u32"));
        for v in embeddings.ego(node).iter().chain(embeddings.context(node)) {
            hash = (hash ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}
