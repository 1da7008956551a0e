//! Building routing: which shard's AP inventory a scan belongs to. The
//! fleet and the router tier both route through one [`RouteIndex`].

use crate::Grafics;
use grafics_graph::WeightFunction;
use grafics_types::{BuildingId, MacAddr, SignalRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The fleet's routing rule — persisted in the fleet directory manifest
/// so a reloaded fleet routes exactly like the one that saved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterKind {
    /// Most known MACs wins.
    Overlap,
    /// Largest summed edge weight over known MACs wins (each building's
    /// own [`WeightFunction`] applied to the reading's RSS) — favours
    /// strong in-building readings over stray hotspots heard through a
    /// wall.
    WeightedOverlap,
}

/// A custom routing rule, for fleets built with
/// [`GraficsFleet::with_router`](crate::GraficsFleet::with_router) (e.g.
/// a test fake that declines everything to force the broadcast
/// fallback). Implementations must be deterministic — routing is part of
/// the fleet's reproducibility contract.
pub trait Router: Send + Sync {
    /// Picks the shard for `record` from the published snapshots (sorted
    /// ascending by [`BuildingId`]), or `None` to discard the record as
    /// outside every building.
    fn route(
        &self,
        snapshots: &[(BuildingId, Arc<Grafics>)],
        record: &SignalRecord,
    ) -> Option<BuildingId>;
}

/// An inverted MAC → building index applying one [`RouterKind`], so a
/// route costs one hash probe per reading rather than one per reading
/// per building.
///
/// Buildings occupy *slots* in ascending id order. Each MAC maps to a
/// range of one flat, slot-sorted postings array. A route accumulates
/// per-slot overlap counts (or `f64` weights, added in the record's
/// reading order) and keeps the first slot with a strictly greater
/// score: ties go to the lowest building id, and zero overlap routes
/// nowhere.
#[derive(Debug, Clone)]
pub struct RouteIndex {
    kind: RouterKind,
    slots: Vec<(BuildingId, WeightFunction)>,
    /// MAC → `start..end` into `postings`.
    ranges: HashMap<MacAddr, (usize, usize)>,
    postings: Vec<usize>,
}

impl RouteIndex {
    /// Indexes `buildings`: `(id, weight function, AP inventory)` in
    /// strictly ascending id order. A MAC listed twice for one building
    /// counts once.
    ///
    /// # Panics
    ///
    /// Panics if the ids are not strictly ascending.
    pub fn new<M: IntoIterator<Item = MacAddr>>(
        kind: RouterKind,
        buildings: impl IntoIterator<Item = (BuildingId, WeightFunction, M)>,
    ) -> Self {
        let mut slots: Vec<(BuildingId, WeightFunction)> = Vec::new();
        let mut pairs: Vec<(MacAddr, usize)> = Vec::new();
        for (building, weight, macs) in buildings {
            assert!(
                slots.last().is_none_or(|(last, _)| *last < building),
                "route index buildings must be strictly ascending"
            );
            let slot = slots.len();
            slots.push((building, weight));
            pairs.extend(macs.into_iter().map(|mac| (mac, slot)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut ranges = HashMap::with_capacity(pairs.len());
        let mut start = 0;
        for (end, pair) in pairs.iter().enumerate() {
            if pairs.get(end + 1).is_none_or(|next| next.0 != pair.0) {
                ranges.insert(pair.0, (start, end + 1));
                start = end + 1;
            }
        }
        RouteIndex {
            kind,
            slots,
            ranges,
            postings: pairs.into_iter().map(|(_, slot)| slot).collect(),
        }
    }

    /// The slot of `building`, if indexed.
    #[must_use]
    pub fn slot_of(&self, building: BuildingId) -> Option<usize> {
        self.slots
            .binary_search_by_key(&building, |(id, _)| *id)
            .ok()
    }

    /// The building `record` routes to, if any.
    #[must_use]
    pub fn route(&self, record: &SignalRecord) -> Option<BuildingId> {
        self.route_slot(record).map(|slot| self.slots[slot].0)
    }

    /// The slot `record` routes to, if any.
    #[must_use]
    pub fn route_slot(&self, record: &SignalRecord) -> Option<usize> {
        let hits = |mac: MacAddr| {
            let (start, end) = self.ranges.get(&mac).copied().unwrap_or((0, 0));
            self.postings[start..end].iter().copied()
        };
        match self.kind {
            RouterKind::Overlap => {
                let mut counts = vec![0usize; self.slots.len()];
                for mac in record.macs() {
                    for slot in hits(mac) {
                        counts[slot] += 1;
                    }
                }
                first_strict_max(&counts, 0)
            }
            RouterKind::WeightedOverlap => {
                let mut sums = vec![0.0f64; self.slots.len()];
                for reading in record.readings() {
                    for slot in hits(reading.mac) {
                        sums[slot] += self.slots[slot].1.weight(reading.rssi);
                    }
                }
                first_strict_max(&sums, 0.0)
            }
        }
    }
}

/// The first index whose score is above `floor` and strictly greater
/// than every earlier one.
fn first_strict_max<T: PartialOrd + Copy>(scores: &[T], floor: T) -> Option<usize> {
    let mut best: Option<(usize, T)> = None;
    for (slot, &score) in scores.iter().enumerate() {
        if score > floor && best.is_none_or(|(_, b)| score > b) {
            best = Some((slot, score));
        }
    }
    best.map(|(slot, _)| slot)
}
