//! Digests of modeled outputs: a 64-bit FNV-1a-style fold over 64-bit
//! words (floats by bit pattern), so any change to any modeled value
//! changes the digest.

use ir_fpga::unit::UnitRun;
use ir_fpga::SystemRun;

/// Running digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string, length first.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// Every field of a unit run: grid, scores, pick, outcomes, cycles.
    pub fn unit_run(&mut self, run: &UnitRun) {
        self.u64(run.grid.num_consensuses() as u64);
        self.u64(run.grid.num_reads() as u64);
        for i in 0..run.grid.num_consensuses() {
            for cell in run.grid.row(i) {
                self.u64(cell.whd);
                self.u64(cell.offset as u64);
            }
        }
        run.scores.iter().for_each(|&s| self.u64(s));
        self.u64(run.best as u64);
        for o in &run.outcomes {
            let (realign, offset, pos) = o.into_parts();
            self.u64(u64::from(realign));
            self.u64(offset as u64);
            self.u64(pos);
        }
        let c = run.cycles;
        [
            c.load,
            c.hdc,
            c.selector,
            c.drain,
            run.comparisons,
            run.offsets_pruned,
        ]
        .into_iter()
        .for_each(|v| self.u64(v));
    }

    /// A system run's timing and per-target results. `full` folds every
    /// unit run in full; otherwise only each target's pick, realigned
    /// count, cycles and comparisons (replays of one oracle repeat the
    /// same unit runs, which a full fold would only hash again).
    pub fn system_run(&mut self, run: &SystemRun, full: bool) {
        self.f64(run.wall_time_s);
        self.f64(run.dma_busy_s);
        self.f64(run.command_s);
        self.u64(run.compute_cycles);
        self.u64(run.comparisons);
        run.unit_busy_s.iter().for_each(|&b| self.f64(b));
        for r in &run.results {
            if full {
                self.unit_run(r);
            } else {
                self.u64(r.best as u64);
                self.u64(r.realigned_count() as u64);
                self.u64(r.cycles.total());
                self.u64(r.comparisons);
            }
        }
        if let Some(rep) = &run.resilience {
            let f = rep.faults;
            [
                f.dma_timeouts,
                f.dma_truncations,
                f.responses_dropped,
                f.responses_duplicated,
                f.unit_hangs,
                f.output_bit_flips,
                rep.dma_faults,
                rep.timeouts,
                rep.corrupt_detected,
                rep.unit_hangs,
                rep.stale_responses,
                rep.retries,
                rep.fallbacks,
                rep.recovered_targets,
                rep.recovered_cycles,
                rep.lost_cycles,
            ]
            .into_iter()
            .for_each(|v| self.u64(v));
            rep.quarantined_units
                .iter()
                .for_each(|&u| self.u64(u as u64));
        }
        if let Some(t) = &run.telemetry {
            for (k, v) in t.counters.counters() {
                self.str(k);
                self.u64(v);
            }
            for e in &t.trace.events {
                self.u64(e.track.tid());
                self.str(&e.name);
                self.f64(e.start_s);
                self.f64(e.end_s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_word_change_changes_the_digest() {
        let fold = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.u64(w));
            d.finish()
        };
        let base = fold(&[1, 2, 3]);
        assert_eq!(base, fold(&[1, 2, 3]));
        assert_ne!(base, fold(&[1, 2, 4]));
        assert_ne!(base, fold(&[1, 3, 2]));
        assert_ne!(base, fold(&[1, 2, 3, 0]));
    }
}
