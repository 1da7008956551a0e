//! The scenario timeline model: typed drift events, epochs, and named
//! presets — plain `serde` values, shareable as JSON artifacts.

use grafics_data::FleetPreset;
use serde::{Deserialize, Serialize};

/// How a [`Event::SignalDrift`] unfolds over the remaining timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Schedule {
    /// The full jitter lands in the event's epoch — an overnight
    /// maintenance pass that re-provisioned transmit powers.
    Step,
    /// The jitter is spread evenly over the event's epoch and every
    /// epoch after it — seasonal attenuation, slow battery sag, gradual
    /// occupancy change.
    Linear,
}

/// One typed change to the deployed world, applied at the start of an
/// [`Epoch`]. Every event draws from the scenario's seeded ChaCha
/// stream, so the same scenario JSON plus the same seed replays the
/// same world bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// AP replacement wave: every building loses a random
    /// `replace_frac` of its BSSIDs and gains `add_frac` (of the
    /// original count) freshly MAC'd radios —
    /// `BuildingModel::drift_layout` with no power jitter. The removed
    /// MACs are reported so the replay harness can prune them from the
    /// shards' write models (`Grafics::remove_ap`).
    ApChurn {
        /// Fraction of deployed BSSIDs removed (0..=1).
        replace_frac: f64,
        /// Fresh radios added, as a fraction of the original BSSID
        /// count (0..=1).
        add_frac: f64,
    },
    /// Transmit-power drift on surviving APs: per-AP Gaussian jitter of
    /// `power_jitter_db` dB, landed per `schedule`.
    SignalDrift {
        /// Jitter standard deviation, dB.
        power_jitter_db: f64,
        /// Step (all at once) or Linear (spread over remaining epochs).
        schedule: Schedule,
    },
    /// A new device population starts contributing records: each listed
    /// population gets a constant RSS offset drawn from `N(0, sigma_db)`
    /// at event time, and every subsequent record samples a population
    /// by weight — cheap handsets reading every AP a few dB weaker than
    /// the phones that built the corpus.
    DeviceMix {
        /// Standard deviation of the per-population offsets, dB.
        sigma_db: f64,
        /// Relative population weights (need not sum to 1).
        pop_weights: Vec<f64>,
    },
    /// Podium/atrium records: with probability `frac`, a generated
    /// record also hears the strongest APs of a *neighbouring* building.
    /// Such a record routes to the building it overlaps most, so a heavy
    /// bleed can send it to the wrong building and costs accuracy.
    CrossBuildingBleed {
        /// Fraction of records that straddle two buildings (0..=1).
        frac: f64,
    },
}

/// One step of the timeline: events applied to the world, then an
/// absorb stream, then a held-out probe set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Epoch {
    /// Display label ("month-3").
    pub label: String,
    /// Events applied at the start of this epoch.
    pub events: Vec<Event>,
    /// Crowdsourced records absorbed per building this epoch.
    pub absorb_per_building: usize,
    /// Held-out probes served (and scored) per building this epoch.
    pub probe_per_building: usize,
}

impl Epoch {
    /// A quiet epoch: records flow, nothing changes.
    #[must_use]
    pub fn quiet(label: &str, absorb: usize, probe: usize) -> Self {
        Epoch {
            label: label.to_owned(),
            events: Vec::new(),
            absorb_per_building: absorb,
            probe_per_building: probe,
        }
    }

    /// An epoch with events.
    #[must_use]
    pub fn with_events(label: &str, absorb: usize, probe: usize, events: Vec<Event>) -> Self {
        Epoch {
            events,
            ..Epoch::quiet(label, absorb, probe)
        }
    }
}

/// A full drift-and-churn timeline over a [`FleetPreset`]-generated
/// world. Serializable: `Scenario::load`/[`Scenario::save`] make
/// scenarios shareable JSON artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (reported in [`ScenarioReport`]).
    ///
    /// [`ScenarioReport`]: crate::ScenarioReport
    pub name: String,
    /// Which building population to generate.
    pub preset: FleetPreset,
    /// Buildings to generate (ignored by [`FleetPreset::HongKong`],
    /// which always has five).
    pub buildings: usize,
    /// Crowdsourced records per floor in the *training* corpus.
    pub records_per_floor: usize,
    /// The timeline.
    pub epochs: Vec<Epoch>,
}

/// Default absorb/probe volumes for the named presets — sized so a full
/// preset replay finishes in CI seconds, not minutes.
const ABSORB: usize = 40;
const PROBE: usize = 40;

impl Scenario {
    /// The named presets [`Scenario::preset`] knows.
    #[must_use]
    pub fn preset_names() -> &'static [&'static str] {
        &["stable", "mall-renovation", "campus-churn", "podium"]
    }

    /// A named preset scenario, or `None` for an unknown name:
    ///
    /// - `stable` — six quiet epochs; the control arm. Accuracy should
    ///   hold flat and no drift trigger should fire.
    /// - `mall-renovation` — a renovation shock: quarter of the APs
    ///   replaced in one epoch (plus a power re-provisioning step),
    ///   followed by a smaller second wave.
    /// - `campus-churn` — slow rot: a few percent AP churn every epoch,
    ///   a linear power ramp, and a cheap-handset population arriving
    ///   mid-timeline.
    /// - `podium` — two malls over a shared podium: a third of records
    ///   straddle buildings, stressing routing (each routes to the
    ///   building it overlaps most).
    #[must_use]
    pub fn preset(name: &str) -> Option<Scenario> {
        let base = |name: &str, epochs: Vec<Epoch>| Scenario {
            name: name.to_owned(),
            preset: FleetPreset::Microsoft,
            buildings: 3,
            records_per_floor: 60,
            epochs,
        };
        match name {
            "stable" => Some(base(
                "stable",
                (1..=6)
                    .map(|m| Epoch::quiet(&format!("month-{m}"), ABSORB, PROBE))
                    .collect(),
            )),
            "mall-renovation" => Some(base(
                "mall-renovation",
                vec![
                    Epoch::quiet("month-1", ABSORB, PROBE),
                    Epoch::quiet("month-2", ABSORB, PROBE),
                    Epoch::with_events(
                        "month-3-renovation",
                        ABSORB,
                        PROBE,
                        vec![
                            Event::ApChurn {
                                replace_frac: 0.25,
                                add_frac: 0.25,
                            },
                            Event::SignalDrift {
                                power_jitter_db: 2.0,
                                schedule: Schedule::Step,
                            },
                        ],
                    ),
                    Epoch::with_events(
                        "month-4-snagging",
                        ABSORB,
                        PROBE,
                        vec![Event::ApChurn {
                            replace_frac: 0.15,
                            add_frac: 0.15,
                        }],
                    ),
                    Epoch::quiet("month-5", ABSORB, PROBE),
                    Epoch::quiet("month-6", ABSORB, PROBE),
                ],
            )),
            "campus-churn" => Some(base(
                "campus-churn",
                (1..=6)
                    .map(|m| {
                        let mut events = Vec::new();
                        if m >= 2 {
                            events.push(Event::ApChurn {
                                replace_frac: 0.08,
                                add_frac: 0.08,
                            });
                        }
                        if m == 2 {
                            events.push(Event::SignalDrift {
                                power_jitter_db: 3.0,
                                schedule: Schedule::Linear,
                            });
                        }
                        if m == 4 {
                            events.push(Event::DeviceMix {
                                sigma_db: 4.0,
                                pop_weights: vec![0.6, 0.3, 0.1],
                            });
                        }
                        Epoch::with_events(&format!("month-{m}"), ABSORB, PROBE, events)
                    })
                    .collect(),
            )),
            "podium" => Some(base(
                "podium",
                (1..=6)
                    .map(|m| {
                        let mut events = Vec::new();
                        if m == 2 {
                            events.push(Event::CrossBuildingBleed { frac: 0.35 });
                        }
                        if m == 4 {
                            events.push(Event::SignalDrift {
                                power_jitter_db: 1.5,
                                schedule: Schedule::Step,
                            });
                        }
                        Epoch::with_events(&format!("month-{m}"), ABSORB, PROBE, events)
                    })
                    .collect(),
            )),
            _ => None,
        }
    }

    /// Pretty JSON for saving/sharing.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned())
    }

    /// Parses a scenario from JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad scenario JSON: {e}"))
    }

    /// Writes the scenario as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a scenario from a JSON file.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` on malformed JSON.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_parses_and_round_trips() {
        for name in Scenario::preset_names() {
            let s = Scenario::preset(name).expect(name);
            assert_eq!(&s.name, name);
            assert!(!s.epochs.is_empty());
            let back = Scenario::from_json(&s.to_json()).expect("round trip");
            assert_eq!(s, back);
        }
        assert!(Scenario::preset("no-such").is_none());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("grafics-scenario-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("podium.json");
        let s = Scenario::preset("podium").unwrap();
        s.save(&path).unwrap();
        assert_eq!(Scenario::load(&path).unwrap(), s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_presets_actually_drift() {
        for name in ["mall-renovation", "campus-churn"] {
            let s = Scenario::preset(name).unwrap();
            let churns = s
                .epochs
                .iter()
                .flat_map(|e| &e.events)
                .filter(|e| matches!(e, Event::ApChurn { .. }))
                .count();
            assert!(churns >= 1, "{name} has no churn");
        }
    }
}
