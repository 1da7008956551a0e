//! Metric collection, quantiles and the result line.

/// Nearest-rank quantile `q` of `values` (sorted here); `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What one run measured and how many operations it attempted and failed.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line per distinct cause.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, u)| (v, u))
    }

    /// This report's counts with exactly the `declared` metrics; a metric
    /// missing or measured in another unit is an error.
    pub fn select(&self, declared: &[(&'static str, &'static str)]) -> Result<Report, String> {
        let mut out = Report {
            metrics: Vec::with_capacity(declared.len()),
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures.clone(),
        };
        for &(name, unit) in declared {
            match self.get(name) {
                Some((value, got)) if got == unit => out.metric(name, value, unit),
                Some((_, got)) => {
                    return Err(format!("{name} measured in {got}, declared in {unit}"))
                }
                None => return Err(format!("{name} was not measured")),
            }
        }
        Ok(out)
    }

    /// Adds `attempted` operations, of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one failed operation and keeps its cause for the log.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.causes(std::slice::from_ref(&why));
    }

    /// Keeps the first few distinct failure causes for the log.
    pub fn causes(&mut self, why: &[String]) {
        for why in why {
            if self.failures.len() < 8 && !self.failures.contains(why) {
                self.failures.push(why.clone());
            }
        }
    }

    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// by name with its unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(value: f64) -> String {
    if value.is_finite() {
        let s = format!("{value}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_owned()
    }
}
