//! The benchmark's own worker binary: one operator node per OS process,
//! launched by `Cluster` with its slice of the topology in the
//! environment. Built next to the benchmark so a run never depends on
//! where (or whether) the root package's `streammine_worker` was built.

use std::sync::Arc;
use std::time::Duration;

use streammine::core::dist::{worker_main, OperatorRegistry};
use streammine::operators::{Map, RandomTagger};

fn parent_pid() -> Option<u32> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    stat[stat.rfind(')')? + 1..].split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    // A benchmark that is killed (the driver's time limit, a wedge
    // probe's watchdog) cannot shut its cluster down; a worker whose
    // parent has changed has been orphaned and leaves on its own.
    if let Some(launcher) = parent_pid() {
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(250));
            if parent_pid() != Some(launcher) {
                std::process::exit(70);
            }
        });
    }
    let registry = OperatorRegistry::new()
        .with(RandomTagger::NAME, || Arc::new(RandomTagger))
        .with("identity", || Arc::new(Map::new(|v| v.clone())));
    std::process::exit(worker_main(&registry));
}
