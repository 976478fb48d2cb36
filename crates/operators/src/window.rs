//! Window aggregations for the two non-deterministic classes the paper
//! identifies (§1): count windows depend on arrival order, system-time
//! windows depend on physical time.

use streammine_common::event::{Event, Value};
use streammine_core::{OpCtx, Operator, SetupCtx, StateHandle};
use streammine_stm::StmAbort;

use parking_lot::Mutex;

/// Aggregation function for windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAgg {
    /// Sum of payload values.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Maximum.
    Max,
    /// Element count.
    Count,
}

impl WindowAgg {
    fn finish(self, sum: f64, count: u64, max: f64) -> f64 {
        match self {
            WindowAgg::Sum => sum,
            WindowAgg::Avg => {
                if count == 0 {
                    0.0
                } else {
                    sum / count as f64
                }
            }
            WindowAgg::Max => max,
            WindowAgg::Count => count as f64,
        }
    }
}

type AccHandle = StateHandle<(f64, u64, f64)>; // (sum, count, max)

fn fold(acc: (f64, u64, f64), v: f64) -> (f64, u64, f64) {
    (acc.0 + v, acc.1 + 1, if acc.1 == 0 { v } else { acc.2.max(v) })
}

/// Count-based tumbling window (§1: "for count-based windows, the order
/// will always be important"): emits one aggregate every `size` events.
pub struct CountWindow {
    size: u64,
    agg: WindowAgg,
    acc: Mutex<Option<AccHandle>>,
}

impl CountWindow {
    /// Creates a window of `size` events.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: u64, agg: WindowAgg) -> Self {
        assert!(size > 0, "window size must be positive");
        CountWindow { size, agg, acc: Mutex::new(None) }
    }
}

impl Operator for CountWindow {
    fn name(&self) -> &str {
        "count-window"
    }

    fn setup(&self, ctx: &mut SetupCtx<'_>) {
        *self.acc.lock() = Some(ctx.state((0.0f64, 0u64, 0.0f64)));
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let handle = self.acc.lock().expect("setup ran");
        let v = event.payload.as_f64().unwrap_or(0.0);
        let acc = fold(*ctx.get(handle)?, v);
        if acc.1 >= self.size {
            ctx.emit(Value::Float(self.agg.finish(acc.0, acc.1, acc.2)));
            ctx.set(handle, (0.0, 0, 0.0))?;
        } else {
            ctx.set(handle, acc)?;
        }
        Ok(())
    }
}

/// System-time tumbling window: the window an event falls into depends on
/// the *arrival* wall-clock time — a logged non-deterministic decision
/// (§1: "aggregation windows based on system time depend on the arrival
/// times of the events").
pub struct SystemTimeWindow {
    width_us: u64,
    agg: WindowAgg,
    state: Mutex<Option<(StateHandle<u64>, AccHandle)>>,
}

impl SystemTimeWindow {
    /// Creates a tumbling window of `width_us` microseconds of system time.
    ///
    /// # Panics
    ///
    /// Panics if `width_us == 0`.
    pub fn new(width_us: u64, agg: WindowAgg) -> Self {
        assert!(width_us > 0, "window width must be positive");
        SystemTimeWindow { width_us, agg, state: Mutex::new(None) }
    }
}

impl Operator for SystemTimeWindow {
    fn name(&self) -> &str {
        "system-time-window"
    }

    fn setup(&self, ctx: &mut SetupCtx<'_>) {
        *self.state.lock() = Some((ctx.state(u64::MAX), ctx.state((0.0f64, 0u64, 0.0f64))));
    }

    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let (start_h, acc_h) = self.state.lock().expect("setup ran");
        // Logged determinant: the arrival time that buckets this event.
        let now = ctx.now_micros();
        let window = now / self.width_us;
        let current = *ctx.get(start_h)?;
        let acc = *ctx.get(acc_h)?;
        let v = event.payload.as_f64().unwrap_or(0.0);
        if current == u64::MAX || window == current {
            if current == u64::MAX {
                ctx.set(start_h, window)?;
            }
            ctx.set(acc_h, fold(acc, v))?;
        } else {
            ctx.emit(Value::Float(self.agg.finish(acc.0, acc.1, acc.2)));
            ctx.set(start_h, window)?;
            ctx.set(acc_h, fold((0.0, 0, 0.0), v))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use streammine_core::{GraphBuilder, OperatorConfig};

    fn run_window(op: impl Operator, inputs: Vec<Value>, expected_outputs: usize) -> Vec<f64> {
        let mut b = GraphBuilder::new();
        let w = b.add_operator(op, OperatorConfig::plain());
        let src = b.source_into(w).unwrap();
        let sink = b.sink_from(w).unwrap();
        let running = b.build().unwrap().start();
        for v in inputs {
            running.source(src).push(v);
        }
        assert!(running.sink(sink).wait_final(expected_outputs, Duration::from_secs(5)));
        let out =
            running.sink(sink).final_events().iter().filter_map(|e| e.payload.as_f64()).collect();
        running.shutdown();
        out
    }

    #[test]
    fn count_window_sums_per_window() {
        let out =
            run_window(CountWindow::new(3, WindowAgg::Sum), (1..=6).map(Value::Int).collect(), 2);
        assert_eq!(out, vec![6.0, 15.0]);
    }

    #[test]
    fn count_window_avg_and_max() {
        let out =
            run_window(CountWindow::new(2, WindowAgg::Avg), vec![Value::Int(2), Value::Int(4)], 1);
        assert_eq!(out, vec![3.0]);
        let out =
            run_window(CountWindow::new(2, WindowAgg::Max), vec![Value::Int(7), Value::Int(3)], 1);
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn count_agg_counts() {
        let out =
            run_window(CountWindow::new(4, WindowAgg::Count), (0..4).map(Value::Int).collect(), 1);
        assert_eq!(out, vec![4.0]);
    }

    #[test]
    fn system_time_window_buckets_by_arrival() {
        let mut b = GraphBuilder::new();
        let w = b
            .add_operator(SystemTimeWindow::new(50_000, WindowAgg::Count), OperatorConfig::plain());
        let src = b.source_into(w).unwrap();
        let sink = b.sink_from(w).unwrap();
        let running = b.build().unwrap().start();
        running.source(src).push(Value::Int(1));
        running.source(src).push(Value::Int(1));
        std::thread::sleep(Duration::from_millis(120));
        running.source(src).push(Value::Int(1));
        assert!(running.sink(sink).wait_final(1, Duration::from_secs(5)));
        let out: Vec<f64> =
            running.sink(sink).final_events().iter().filter_map(|e| e.payload.as_f64()).collect();
        assert_eq!(out[0], 2.0, "first system-time window saw two arrivals");
        running.shutdown();
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_count_window_panics() {
        let _ = CountWindow::new(0, WindowAgg::Sum);
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_system_time_window_panics() {
        let _ = SystemTimeWindow::new(0, WindowAgg::Sum);
    }
}
