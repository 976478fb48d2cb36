//! Order statistics over `f64` samples.

/// Sorts samples ascending. Latencies are finite by construction.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Ceil nearest-rank percentile of an ordered slice, counted from its
/// front (`q` in `(0, 1]`); `NAN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample set: the mean of the two middle values
/// when the count is even, so medians of few samples (set-up cycles,
/// fault trials) do not snap to one of them.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a quarter of the way in from the best of an unsorted sample
/// set (nearest rank: the third best of ten, the second best of eight),
/// `lower_is_better` saying which end is best; `NAN` when empty. What
/// disturbs a window — the hypervisor running someone else, a stall —
/// only ever makes it worse, so the better windows of a run are the ones
/// that describe the program, and a change to the program moves them all.
pub fn best_quartile(mut v: Vec<f64>, lower_is_better: bool) -> f64 {
    sort(&mut v);
    if !lower_is_better {
        v.reverse();
    }
    percentile(&v, 0.25)
}
