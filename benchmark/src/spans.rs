//! The benchmark's own spans: one per call into a layer, kept in memory
//! and written as Chrome trace-event JSON when the traced run ends.
//!
//! Spans are recorded from the benchmark's single generator thread, so a
//! stack of open spans gives each new span its parent. With recording off
//! (every untraced run) `begin`/`end` do nothing and read no clock.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished or open span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Workload or probe group that made the call.
    pub scope: &'static str,
    /// Set-up cycle or fault trial within the scope.
    pub trial: u32,
}

/// Handle returned by [`Spans::begin`]; `None` while recording is off.
pub type Token = Option<usize>;

pub struct Spans {
    on: bool,
    epoch: Instant,
    scope: &'static str,
    trial: u32,
    open: Vec<usize>,
    all: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, epoch: Instant::now(), scope: "", trial: 0, open: Vec::new(), all: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Labels the spans that follow.
    pub fn enter(&mut self, scope: &'static str, trial: u32) {
        self.scope = scope;
        self.trial = trial;
    }

    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.on {
            return None;
        }
        let idx = self.all.len();
        self.all.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            scope: self.scope,
            trial: self.trial,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, token: Token) {
        let Some(idx) = token else { return };
        self.all[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        // Spans close innermost-first; tolerate a skipped `end` on an
        // early return by closing everything above this one too.
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Durations (ns) of every finished span with this name in `scope`
    /// (`None` = any scope).
    pub fn durations_ns(&self, name: &str, scope: Option<&str>) -> Vec<f64> {
        self.all
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
            .filter(|s| scope.is_none_or(|sc| s.scope == sc))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes every finished span as a Chrome trace-event array
    /// (`ph: "X"`, microsecond timestamps), loadable in Perfetto.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.all.len() * 160 + 2);
        out.push('[');
        let mut first = true;
        for (idx, s) in self.all.iter().enumerate().filter(|(_, s)| s.end_ns > 0) {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{idx},\"parent\":{parent},\
                 \"workload\":\"{}\",\"trial\":{}}}}}",
                s.name,
                s.scope,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.scope,
                s.trial
            );
        }
        out.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn len(&self) -> usize {
        self.all.len()
    }
}
