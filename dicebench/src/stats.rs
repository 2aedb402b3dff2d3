//! Arithmetic on raw samples: percentiles, goodput and layer attribution.
//!
//! Every percentile here is taken from the raw sample values, never from
//! bucketed histograms: the runner's log2 buckets report p50 and p95 of a
//! 200-255 ms population as the same 255 ms bucket edge.

/// The `p`-th percentile (`0.0..=100.0`) of `samples`, interpolating
/// linearly between the two nearest ranks (the "type 7" definition that
/// NumPy and spreadsheets use). Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples`, `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// How many samples lie strictly above the `p`-th percentile: a
/// percentile is only reported when at least ten samples lie beyond it.
pub fn samples_beyond(samples: &[f64], p: f64) -> usize {
    let Some(cut) = percentile(samples, p) else {
        return 0;
    };
    samples.iter().filter(|&&s| s > cut).count()
}

/// Requests per second that completed correctly within `limit_ms`.
/// `latencies_ms[i]` is `None` for a request that failed or was refused,
/// which counts as missing the limit.
pub fn goodput(latencies_ms: &[Option<f64>], limit_ms: f64, window_s: f64) -> f64 {
    let good = latencies_ms
        .iter()
        .filter(|l| l.is_some_and(|ms| ms <= limit_ms))
        .count();
    good as f64 / window_s
}

/// One layer's host-time cost in a simulation run: a per-call cost
/// measured in the layer replay, scaled by the real run's call count.
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    /// Nanoseconds per call, from the replay.
    pub ns_per_call: f64,
    /// Calls the real run made.
    pub calls: f64,
}

impl LayerCost {
    /// The layer's estimated share of a run that took `run_ns`.
    pub fn share_of(self, run_ns: f64) -> f64 {
        if run_ns <= 0.0 {
            return 0.0;
        }
        self.ns_per_call * self.calls / run_ns
    }
}

/// The share of a `run_ns` run left after every layer's cost: the event
/// wheel, the core model and bookkeeping. Negative when the layer costs
/// over-account the run, which the attribution self-check rejects.
pub fn engine_share(layers: &[LayerCost], run_ns: f64) -> f64 {
    1.0 - layers.iter().map(|l| l.share_of(run_ns)).sum::<f64>()
}

/// Checks the arithmetic above on inputs with known answers. Returns the
/// first disagreement.
pub fn self_test() -> Result<(), String> {
    fn expect(what: &str, got: f64, want: f64) -> Result<(), String> {
        if (got - want).abs() <= 1e-9 * want.abs().max(1.0) {
            Ok(())
        } else {
            Err(format!("self-test {what}: got {got}, want {want}"))
        }
    }
    // 1..=100 in scrambled order: p50 = 50.5, p95 = 95.05, p0/p100 are
    // the extremes, and 5 samples lie beyond p95.
    let hundred: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
    expect("p50", median(&hundred), 50.5)?;
    expect("p95", percentile(&hundred, 95.0).unwrap_or(f64::NAN), 95.05)?;
    expect("p0", percentile(&hundred, 0.0).unwrap_or(f64::NAN), 1.0)?;
    expect(
        "p100",
        percentile(&hundred, 100.0).unwrap_or(f64::NAN),
        100.0,
    )?;
    expect("beyond p95", samples_beyond(&hundred, 95.0) as f64, 5.0)?;
    expect("single", median(&[7.0]), 7.0)?;
    if percentile(&[], 50.0).is_some() {
        return Err("self-test: percentile of no samples must be None".into());
    }
    // A bimodal sample that log2 buckets cannot split: 60 at 200 ms and
    // 40 at 250 ms. p50 is 200 and p95 is 250.
    let bimodal: Vec<f64> = (0..100)
        .map(|i| if i < 60 { 200.0 } else { 250.0 })
        .collect();
    expect("bimodal p50", median(&bimodal), 200.0)?;
    expect(
        "bimodal p95",
        percentile(&bimodal, 95.0).unwrap_or(f64::NAN),
        250.0,
    )?;
    // Goodput: 3 of 5 within 100 ms (one failed, one late) over 2 s.
    let lat = [Some(10.0), Some(100.0), None, Some(100.5), Some(50.0)];
    expect("goodput", goodput(&lat, 100.0, 2.0), 1.5)?;
    // Attribution: 100 ns run, layers 20 ns x 2 calls and 5 ns x 4 calls
    // leave 40 % to the engine.
    let layers = [
        LayerCost {
            ns_per_call: 20.0,
            calls: 2.0,
        },
        LayerCost {
            ns_per_call: 5.0,
            calls: 4.0,
        },
    ];
    expect("layer share", layers[0].share_of(100.0), 0.4)?;
    expect("engine share", engine_share(&layers, 100.0), 0.4)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_inputs() {
        self_test().expect("arithmetic self-test");
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&a), 3.0);
        assert_eq!(percentile(&a, 25.0), Some(2.0));
    }
}
