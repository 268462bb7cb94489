//! Exports a small, diverse set of generator-drawn seed cases to a
//! corpus directory. This is how `fuzz/corpus/seeds/` was produced:
//!
//! ```text
//! cargo run -p ir-fuzz --example export_seeds -- fuzz/corpus/seeds
//! ```
//!
//! Re-running overwrites the files with identical bytes (the generator
//! and the encoding are both deterministic), so the checked-in seeds can
//! always be regenerated and audited.

use std::path::PathBuf;

use ir_fuzz::{execute, generate, FuzzInput};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A coverage class: its tag in the seed file name, and the predicate a
/// generated case must satisfy to represent it.
type CoverageClass = (&'static str, fn(&FuzzInput) -> bool);

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("fuzz/corpus/seeds"));
    std::fs::create_dir_all(&dir).expect("create seeds dir");

    // Draw until we have one case per coverage class, so the starting
    // pool touches every stage of the executor.
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut picks: Vec<(&str, FuzzInput)> = Vec::new();
    let wants: [CoverageClass; 5] = [
        ("kernel-only", |i| i.serve.is_none() && i.fault.is_none()),
        ("fault", |i| i.fault.is_some() && i.serve.is_none()),
        ("serve", |i| i.serve.is_some() && i.fault.is_none()),
        ("serve-fault", |i| i.serve.is_some() && i.fault.is_some()),
        ("multi-target", |i| i.targets.len() >= 3),
    ];
    for (tag, want) in wants {
        loop {
            let input = generate(&mut rng);
            if want(&input) && execute(&input).is_clean() {
                picks.push((tag, input));
                break;
            }
        }
    }

    for (i, (tag, input)) in picks.iter().enumerate() {
        let path = dir.join(format!("seed-{i:02}-{tag}.case"));
        std::fs::write(&path, input.encode()).expect("write seed case");
        println!("wrote {}", path.display());
    }
}
