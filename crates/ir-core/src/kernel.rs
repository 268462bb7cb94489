//! Runtime-dispatched explicit-SIMD weighted-mismatch fold kernels.
//!
//! Every weighted-Hamming-distance evaluation in this crate bottoms out in
//! the same primitive: compare two equal-length byte-code windows and sum
//! the quality scores at the mismatching positions. This module provides
//! that primitive at five ISA levels — [`KernelKind::Scalar`] (the
//! reference loop), [`KernelKind::Swar`] (portable 8-bytes-per-`u64`
//! SIMD-within-a-register), [`KernelKind::Avx2`] / [`KernelKind::Avx512`]
//! (`std::arch` x86 intrinsics) and [`KernelKind::Neon`] (aarch64) — and
//! picks the widest one the running CPU supports, once, at first use.
//!
//! All kernels operate on the byte-per-base code representation
//! ([`ir_genome::base_code`]: `A=1 … N=5`, `0` = padding) and compute the
//! **exact same integers**: mismatch selection is an equality compare and
//! the accumulation is an exact unsigned sum, so there is no rounding or
//! reassociation to diverge on. The differential proptests at the bottom
//! of this module pin every available kernel to the scalar reference
//! byte-for-byte.
//!
//! The active kernel can be forced with the `IR_KERNEL` environment
//! variable (`scalar`, `swar`, `avx2`, `avx512`, `neon`). Naming a kernel
//! the CPU cannot run is not fatal: dispatch falls back to the widest
//! available kernel and records a typed [`KernelError`] that diagnostics
//! (e.g. `ir-cli kernel`) can surface.
//!
//! # SIMD lane layout
//!
//! ```text
//! consensus window  w₀ w₁ w₂ … w₆₃   (one byte code per base)
//! read              r₀ r₁ r₂ … r₆₃
//! scores            s₀ s₁ s₂ … s₆₃   (Phred, one byte per base)
//!
//! neq  = cmpneq(w, r)                 per-lane 0x00 / 0xFF (or a bitmask)
//! sel  = s & neq                      scores where the bases differ
//! sum += sad(sel, 0)                  horizontal byte sum, exact in u64
//! ```
//!
//! AVX-512 runs the diagram 64 lanes at a time with fault-suppressing
//! masked loads for the tail; AVX2 runs 32 lanes with a scalar tail; NEON
//! 16 lanes; SWAR 8 lanes per `u64` with the classic has-zero-byte trick.
//!
//! Two whole offset sweeps live here too, so the per-ISA work inlines
//! into the offset loop: [`serial_sweep`] (per-base pruning) and
//! [`dense_sweep`] (every offset folded in full). AVX-512 runs both
//! offset-parallel, the diagram transposed, on one shared pass 1:
//!
//! ```text
//! lane j = offset k0 + j                   64 consecutive offsets per block
//! pass 1, for each read base b:
//!   neq = cmpneq(row[k0 + b ..], r_b)      one mismatch bit per offset
//!   W  += s_b where neq                    two masked u16 adds
//! E = exclusive prefix-min(W), carried in  each offset's running minimum
//! above += popcnt(W > E); new min = last lane with W < E
//! pass 2 (serial only), for each base b:   replay the kept neq masks
//!   acc += popcnt(neq & live); P += s_b where neq
//!   live = P <= E; visited += popcnt(live)  E is the exact serial budget
//! ```
//!
//! The `u16` lanes are exact while the read's score total stays below
//! 0xFFFF (DESIGN.md §4f).

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// One of the available weighted-mismatch fold implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// The reference byte-at-a-time loop. Always available.
    Scalar,
    /// SIMD-within-a-register over `u64` words (8 bases per word-op).
    /// Always available — the portable fallback.
    Swar,
    /// 256-bit `std::arch` x86 kernel (32 bases per vector-op).
    Avx2,
    /// 512-bit `std::arch` x86 kernel (64 bases per vector-op, masked
    /// loads for tails).
    Avx512,
    /// 128-bit aarch64 kernel (16 bases per vector-op).
    Neon,
}

impl KernelKind {
    /// Every kernel kind, narrowest first.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Scalar,
        KernelKind::Swar,
        KernelKind::Avx2,
        KernelKind::Avx512,
        KernelKind::Neon,
    ];

    /// Whether the running CPU can execute this kernel.
    pub fn is_available(self) -> bool {
        match self {
            KernelKind::Scalar | KernelKind::Swar => true,
            KernelKind::Avx2 => {
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
                {
                    false
                }
            }
            KernelKind::Avx512 => {
                #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512bw")
                        && std::arch::is_x86_feature_detected!("popcnt")
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
                {
                    false
                }
            }
            KernelKind::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }

    /// The kernels the running CPU can execute, narrowest first (always
    /// starts `[Scalar, Swar, ..]`).
    pub fn available() -> Vec<KernelKind> {
        KernelKind::ALL
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    /// The widest kernel the running CPU supports
    /// (`Avx512 > Avx2 > Neon > Swar`).
    pub fn best_available() -> KernelKind {
        for kind in [KernelKind::Avx512, KernelKind::Avx2, KernelKind::Neon] {
            if kind.is_available() {
                return kind;
            }
        }
        KernelKind::Swar
    }

    /// The kebab-case name used by `IR_KERNEL` and displayed in
    /// diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Swar => "swar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
            KernelKind::Neon => "neon",
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for KernelKind {
    type Err = KernelError;

    fn from_str(s: &str) -> Result<Self, KernelError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelKind::Scalar),
            "swar" => Ok(KernelKind::Swar),
            "avx2" => Ok(KernelKind::Avx2),
            "avx512" | "avx-512" => Ok(KernelKind::Avx512),
            "neon" => Ok(KernelKind::Neon),
            other => Err(KernelError::Unknown {
                name: other.to_string(),
            }),
        }
    }
}

/// A kernel-dispatch problem. Never fatal: dispatch always falls back to
/// a kernel that runs, carrying the error as a diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `IR_KERNEL` named something that is not a kernel.
    Unknown {
        /// The unrecognized name, lower-cased.
        name: String,
    },
    /// `IR_KERNEL` named a kernel this CPU cannot execute.
    Unavailable {
        /// The kernel that was asked for.
        requested: KernelKind,
        /// The kernel dispatch fell back to.
        fallback: KernelKind,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Unknown { name } => write!(
                f,
                "unknown kernel {name:?} (expected scalar, swar, avx2, avx512 or neon)"
            ),
            KernelError::Unavailable {
                requested,
                fallback,
            } => write!(
                f,
                "kernel {requested} is unavailable on this CPU; falling back to {fallback}"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Parses `IR_KERNEL` without consulting CPU availability. `Ok(None)`
/// when the variable is unset or empty.
///
/// # Errors
///
/// [`KernelError::Unknown`] if the variable holds an unrecognized name.
pub fn requested_from_env() -> Result<Option<KernelKind>, KernelError> {
    match std::env::var("IR_KERNEL") {
        Ok(v) if !v.trim().is_empty() => v.parse().map(Some),
        _ => Ok(None),
    }
}

/// Resolves a parsed `IR_KERNEL` request against CPU availability: the
/// kernel to run, plus the typed diagnostic if the request could not be
/// honored (graceful fallback, never a panic).
pub fn resolve(
    request: Result<Option<KernelKind>, KernelError>,
) -> (KernelKind, Option<KernelError>) {
    match request {
        Ok(None) => (KernelKind::best_available(), None),
        Ok(Some(kind)) if kind.is_available() => (kind, None),
        Ok(Some(kind)) => {
            let fallback = KernelKind::best_available();
            (
                fallback,
                Some(KernelError::Unavailable {
                    requested: kind,
                    fallback,
                }),
            )
        }
        Err(err) => (KernelKind::best_available(), Some(err)),
    }
}

fn dispatch() -> &'static (KernelKind, Option<KernelError>) {
    static DISPATCH: OnceLock<(KernelKind, Option<KernelError>)> = OnceLock::new();
    DISPATCH.get_or_init(|| resolve(requested_from_env()))
}

/// The kernel every ambient consumer dispatches to: `IR_KERNEL` if set
/// and runnable, else the widest available. Detection and the environment
/// read happen once per process.
pub fn active() -> KernelKind {
    dispatch().0
}

/// The diagnostic recorded when `IR_KERNEL` could not be honored (unknown
/// name or unavailable ISA), if any. [`active`] is still a runnable
/// kernel in that case — this is how tooling reports the downgrade.
pub fn active_diagnostic() -> Option<&'static KernelError> {
    dispatch().1.as_ref()
}

/// The weighted mismatch fold: `Σ scores[i]` over positions where
/// `win[i] != read[i]`. All three slices must have equal length. Every
/// [`KernelKind`] returns the exact same value.
///
/// # Panics
///
/// Panics if the slice lengths differ, or if `kind` cannot run on this
/// CPU (ambient callers should pass [`active`], which always can).
pub fn fold_whd(kind: KernelKind, win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
    assert_eq!(win.len(), read.len(), "window/read length mismatch");
    assert_eq!(scores.len(), read.len(), "scores/read length mismatch");
    match kind {
        KernelKind::Scalar => fold_scalar(win, read, scores),
        KernelKind::Swar => fold_swar(win, read, scores),
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx2 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX2 at runtime.
            unsafe { x86::fold_avx2(win, read, scores) }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx512 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX-512F/BW at runtime.
            unsafe { x86::fold_avx512(win, read, scores) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            assert_available(kind);
            // SAFETY: `assert_available` verified NEON at runtime.
            unsafe { aarch64::fold_neon(win, read, scores) }
        }
        #[allow(unreachable_patterns)]
        other => unavailable(other),
    }
}

/// [`fold_whd`] plus the mismatch count: `(Σ scores[i], #{i})` over the
/// mismatching positions — the pair the bounded sweeps need to charge
/// exact `accumulations`. Every [`KernelKind`] returns the same values.
///
/// # Panics
///
/// As [`fold_whd`].
pub fn fold_whd_counted(kind: KernelKind, win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
    assert_eq!(win.len(), read.len(), "window/read length mismatch");
    assert_eq!(scores.len(), read.len(), "scores/read length mismatch");
    match kind {
        KernelKind::Scalar => fold_scalar_counted(win, read, scores),
        KernelKind::Swar => fold_swar_counted(win, read, scores),
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx2 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX2 at runtime.
            unsafe { x86::fold_avx2_counted(win, read, scores) }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx512 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX-512F/BW at runtime.
            unsafe { x86::fold_avx512_counted(win, read, scores) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            assert_available(kind);
            // SAFETY: `assert_available` verified NEON at runtime.
            unsafe { aarch64::fold_neon_counted(win, read, scores) }
        }
        #[allow(unreachable_patterns)]
        other => unavailable(other),
    }
}

/// Bitmask of mismatching positions over a window of at most 64 bases:
/// bit `i` is set iff `win[i] != read[i]`. The serial immediate-prune
/// sweep uses this instead of [`fold_whd`] on every kind but AVX-512,
/// and there for reads outside the `u16` offset-parallel sweep's reach —
/// one vector compare yields the mismatch set, and the caller
/// accumulates scores bit by bit in ascending position with an exact
/// per-base bound check, the pruning semantics of the per-base
/// reference.
///
/// # Panics
///
/// Panics if the slice lengths differ, exceed 64, or `kind` cannot run
/// on this CPU.
pub fn mismatch_mask(kind: KernelKind, win: &[u8], read: &[u8]) -> u64 {
    assert_eq!(win.len(), read.len(), "window/read length mismatch");
    assert!(read.len() <= 64, "mismatch window wider than 64 bases");
    match kind {
        KernelKind::Scalar => mask_scalar(win, read),
        KernelKind::Swar => mask_swar(win, read),
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx2 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX2 at runtime.
            unsafe { x86::mask_avx2(win, read) }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx512 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX-512F/BW at runtime.
            unsafe { x86::mask_avx512(win, read) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            assert_available(kind);
            // SAFETY: `assert_available` verified NEON at runtime.
            unsafe { aarch64::mask_neon(win, read) }
        }
        #[allow(unreachable_patterns)]
        other => unavailable(other),
    }
}

/// Aggregate result of [`serial_sweep`]: the jump-to-outcome summary of
/// a full serial immediate-prune offset sweep. An offset is pruned iff
/// its full WHD exceeds the minimum WHD over the offsets before it, and
/// it stops at the first base where its running sum does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerialSweep {
    /// Minimum WHD over all completed offsets.
    pub min_whd: u64,
    /// Offset achieving `min_whd` (first on ties).
    pub min_offset: usize,
    /// Total bases visited across every offset, each pruned offset's
    /// stop base included — the pruned scans' cycle and comparison
    /// charge.
    pub visited: u64,
    /// Total score accumulations across every offset: the mismatches up
    /// to and including each pruned offset's stop base, and every
    /// mismatch of a completed offset.
    pub accumulations: u64,
    /// Offsets abandoned by pruning.
    pub offsets_pruned: u64,
}

/// The full serial immediate-prune offset sweep of one (candidate,
/// read) pair: for each offset `k in 0..=row_len - n`, scan the read
/// base by base, accumulate the quality score at each mismatch, and
/// stop the offset as soon as the running sum exceeds the best
/// completed minimum — per-base pruning semantics, bit-exact with the
/// scalar reference.
///
/// The whole sweep lives here (rather than a per-offset primitive) so
/// the per-ISA work inlines into the offset loop, which runs hundreds of
/// offsets per pair. Offsets do not stop early in their scan: on the
/// figure-9 workload an offset visits about 32 bases and ~24 mismatches
/// before it is pruned. The scalar, SWAR, AVX2 and NEON kinds walk the
/// mismatches one dependent add-compare-branch at a time. AVX-512 sweeps
/// 64 offsets per vector instead: a pruned offset's WHD exceeds the
/// minimum it is compared against, so it never lowers that minimum, and
/// offset `k`'s budget is exactly the minimum WHD over offsets `0..k`.
/// One [`dense_sweep`] pass therefore gives every offset's budget, and a
/// second pass replays the mismatch masks to find each stop base.
///
/// `row` is the candidate row (commonly a padded [`CandidateBlock`]
/// row); only `row[..row_len]` is read. `read` and `scores` must have
/// equal lengths `n <= row_len`.
///
/// [`CandidateBlock`]: crate::batch::CandidateBlock
///
/// # Panics
///
/// Panics if `read`/`scores` lengths differ, `n > row_len`,
/// `row_len > row.len()`, or `kind` cannot run on this CPU.
pub fn serial_sweep(
    kind: KernelKind,
    row: &[u8],
    row_len: usize,
    read: &[u8],
    scores: &[u8],
) -> SerialSweep {
    assert_eq!(scores.len(), read.len(), "scores/read length mismatch");
    assert!(row_len <= row.len(), "row_len beyond the candidate row");
    assert!(read.len() <= row_len, "read longer than consensus");
    match kind {
        KernelKind::Scalar => serial_sweep_generic(row, row_len, read, scores, mask_scalar),
        KernelKind::Swar => serial_sweep_generic(row, row_len, read, scores, mask_swar),
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx2 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX2 at runtime.
            unsafe { x86::serial_sweep_avx2(row, row_len, read, scores) }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx512 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX-512F/BW and POPCNT
            // at runtime; the asserts above bound every load (DESIGN.md §4f).
            unsafe { x86::serial_sweep_avx512(row, row_len, read, scores) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            assert_available(kind);
            // SAFETY: `assert_available` verified NEON at runtime.
            unsafe { aarch64::serial_sweep_neon(row, row_len, read, scores) }
        }
        #[allow(unreachable_patterns)]
        other => unavailable(other),
    }
}

/// The offset loop shared by every ISA, monomorphized over the 64-base
/// mismatch-mask primitive so it inlines (the `#[target_feature]`
/// wrappers instantiate it with their ISA's mask inside the feature
/// scope).
#[inline(always)]
fn serial_sweep_generic(
    row: &[u8],
    row_len: usize,
    read: &[u8],
    scores: &[u8],
    mask_chunk: impl Fn(&[u8], &[u8]) -> u64,
) -> SerialSweep {
    let n = read.len();
    let max_k = row_len - n;
    let mut out = SerialSweep::START;
    for k in 0..=max_k {
        let win = &row[k..k + n];
        let mut whd = 0u64;
        let mut visited = 0usize;
        let mut stopped = false;
        'scan: while visited < n {
            let end = (visited + 64).min(n);
            let mut mask = mask_chunk(&win[visited..end], &read[visited..end]);
            while mask != 0 {
                let idx = visited + mask.trailing_zeros() as usize;
                whd += u64::from(scores[idx]);
                out.accumulations += 1;
                if whd > out.min_whd {
                    visited = idx + 1;
                    stopped = true;
                    break 'scan;
                }
                mask &= mask - 1;
            }
            visited = end;
        }
        out.visited += visited as u64;
        if stopped {
            out.offsets_pruned += 1;
        } else if whd < out.min_whd {
            out.min_whd = whd;
            out.min_offset = k;
        }
    }
    out
}

impl SerialSweep {
    /// The state before offset 0: no completed offset, nothing charged.
    const START: SerialSweep = SerialSweep {
        min_whd: u64::MAX,
        min_offset: 0,
        visited: 0,
        accumulations: 0,
        offsets_pruned: 0,
    };
}

/// Aggregate result of [`dense_sweep`]: every offset folded in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseSweep {
    /// Minimum WHD over all offsets.
    pub min_whd: u64,
    /// Offset achieving `min_whd` (first on ties).
    pub min_offset: usize,
    /// Offsets whose WHD exceeded the running minimum at the time they
    /// were folded — the offsets a comparator that cannot stop the scan
    /// in time still flags as pruned.
    pub offsets_above_min: u64,
}

/// The dense offset sweep of one (candidate, read) pair: for each offset
/// `k in 0..=max_k`, fold the whole padded read against
/// `row[k..k + read_padded.len()]` and track the running minimum. The
/// HDC shapes whose scans never stop early (no prune comparator, or a
/// prune verdict that lands only after the last block has issued) are
/// exactly this loop.
///
/// Like [`serial_sweep`], the offset loop runs inside each ISA's
/// `#[target_feature]` scope, so the fold inlines and there is no
/// per-offset dispatch, assertion or call. AVX-512 sweeps 64 offsets per
/// vector, one read base at a time, when the read's score total fits a
/// `u16` lane; the other kinds fold one offset at a time. `read_padded` and
/// `scores_padded` are the zero-padded lane arrays of
/// [`SweepRead`](crate::batch::SweepRead): padding lanes carry score 0,
/// so the fold over the padded length equals the fold over the read.
///
/// # Panics
///
/// Panics if `read_padded`/`scores_padded` lengths differ, if
/// `max_k + read_padded.len() > row.len()` (a [`CandidateBlock`] padded
/// row always has that slack), or if `kind` cannot run on this CPU.
///
/// [`CandidateBlock`]: crate::batch::CandidateBlock
pub fn dense_sweep(
    kind: KernelKind,
    row: &[u8],
    max_k: usize,
    read_padded: &[u8],
    scores_padded: &[u8],
) -> DenseSweep {
    assert_eq!(
        scores_padded.len(),
        read_padded.len(),
        "scores/read length mismatch"
    );
    assert!(
        max_k + read_padded.len() <= row.len(),
        "padded window beyond the candidate row"
    );
    let (read, scores) = (read_padded, scores_padded);
    match kind {
        KernelKind::Scalar => dense_sweep_generic(row, max_k, read, scores, fold_scalar),
        KernelKind::Swar => dense_sweep_generic(row, max_k, read, scores, fold_swar),
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx2 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX2 at runtime; the
            // asserts above keep every window inside `row`.
            unsafe { x86::dense_sweep_avx2(row, max_k, read, scores) }
        }
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        KernelKind::Avx512 => {
            assert_available(kind);
            // SAFETY: `assert_available` verified AVX-512F/BW and POPCNT
            // at runtime; the asserts above bound every load (DESIGN.md §4f).
            unsafe { x86::dense_sweep_avx512(row, max_k, read, scores) }
        }
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => {
            assert_available(kind);
            // SAFETY: as above, for NEON.
            unsafe { aarch64::dense_sweep_neon(row, max_k, read, scores) }
        }
        #[allow(unreachable_patterns)]
        other => unavailable(other),
    }
}

/// The dense offset loop shared by every ISA, monomorphized over the
/// fold like [`serial_sweep_generic`].
#[inline(always)]
fn dense_sweep_generic(
    row: &[u8],
    max_k: usize,
    read: &[u8],
    scores: &[u8],
    fold: impl Fn(&[u8], &[u8], &[u8]) -> u64,
) -> DenseSweep {
    let n = read.len();
    let mut out = DenseSweep {
        min_whd: u64::MAX,
        min_offset: 0,
        offsets_above_min: 0,
    };
    for k in 0..=max_k {
        let whd = fold(&row[k..k + n], read, scores);
        if whd > out.min_whd {
            out.offsets_above_min += 1;
        } else if whd < out.min_whd {
            out.min_whd = whd;
            out.min_offset = k;
        }
    }
    out
}

#[inline]
fn assert_available(kind: KernelKind) {
    assert!(
        kind.is_available(),
        "kernel {kind} is unavailable on this CPU"
    );
}

#[cold]
fn unavailable(kind: KernelKind) -> ! {
    panic!("kernel {kind} is unavailable on this CPU")
}

// ---------------------------------------------------------------------------
// Scalar reference.
// ---------------------------------------------------------------------------

fn fold_scalar(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
    let mut sum = 0u64;
    for i in 0..read.len() {
        sum += u64::from(win[i] != read[i]) * u64::from(scores[i]);
    }
    sum
}

fn fold_scalar_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
    let mut sum = 0u64;
    let mut count = 0u64;
    for i in 0..read.len() {
        let neq = u64::from(win[i] != read[i]);
        sum += neq * u64::from(scores[i]);
        count += neq;
    }
    (sum, count)
}

fn mask_scalar(win: &[u8], read: &[u8]) -> u64 {
    let mut mask = 0u64;
    for i in 0..read.len() {
        mask |= u64::from(win[i] != read[i]) << i;
    }
    mask
}

// ---------------------------------------------------------------------------
// SWAR: 8 byte-lanes per u64, no platform intrinsics.
// ---------------------------------------------------------------------------

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// One 8-lane step: `(score sum, mismatch count)` for the byte group.
/// Lane `i` mismatches when byte `i` of `x = a ^ b` is non-zero; a
/// carry-free per-byte non-zero test marks those lanes, a shift-subtract
/// spreads the marks to full-byte masks, and the multiply folds sum the
/// selected score bytes (≤ 8 × 255, no carry between the u16 lanes).
#[inline]
fn swar_group(a: u64, b: u64, s: u64) -> (u64, u64) {
    let x = a ^ b;
    // Per-byte non-zero, with no cross-byte borrows (unlike the classic
    // has-zero-byte subtract): adding 0x7F to the low 7 bits sets bit 7
    // exactly when they are non-zero, and OR-ing `x` back in covers the
    // bytes whose own bit 7 is set. Each byte stays ≤ 0xFE, so lanes
    // cannot carry into each other.
    let nonzero = ((x & !SWAR_HI) + !SWAR_HI) | x;
    // 0x01 per mismatching byte.
    let marks = (nonzero & SWAR_HI) >> 7;
    // 0x01 → 0xFF per byte (bytes are 0/1, so no cross-byte borrow).
    let mask = (marks << 8).wrapping_sub(marks);
    let sel = s & mask;
    let pairs = (sel & 0x00FF_00FF_00FF_00FF) + ((sel >> 8) & 0x00FF_00FF_00FF_00FF);
    let sum = pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48;
    let count = marks.wrapping_mul(SWAR_LO) >> 56;
    (sum, count)
}

#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte group"))
}

fn fold_swar(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
    fold_swar_counted(win, read, scores).0
}

fn fold_swar_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
    let n = read.len();
    let mut sum = 0u64;
    let mut count = 0u64;
    let mut i = 0usize;
    while i + 8 <= n {
        let (s, c) = swar_group(
            le_word(&win[i..i + 8]),
            le_word(&read[i..i + 8]),
            le_word(&scores[i..i + 8]),
        );
        sum += s;
        count += c;
        i += 8;
    }
    while i < n {
        let neq = u64::from(win[i] != read[i]);
        sum += neq * u64::from(scores[i]);
        count += neq;
        i += 1;
    }
    (sum, count)
}

fn mask_swar(win: &[u8], read: &[u8]) -> u64 {
    let n = read.len();
    let mut mask = 0u64;
    let mut i = 0usize;
    while i + 8 <= n {
        let x = le_word(&win[i..i + 8]) ^ le_word(&read[i..i + 8]);
        let nonzero = ((x & !SWAR_HI) + !SWAR_HI) | x;
        // 0x01 per mismatching byte, gathered to one bit per byte: byte
        // `j`'s mark lands on bit `56 + j` of the product (each top-byte
        // partial sum is a distinct power of two, so no carries).
        let marks = (nonzero & SWAR_HI) >> 7;
        mask |= (marks.wrapping_mul(0x0102_0408_1020_4080) >> 56) << i;
        i += 8;
    }
    while i < n {
        mask |= u64::from(win[i] != read[i]) << i;
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// x86 / x86_64 intrinsic kernels.
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Horizontal sum of the four u64 lanes of `v`.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi64(lo, hi);
        (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64(s, 1) as u64)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. Slice lengths must be equal (checked by
    /// the safe dispatcher).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_avx2(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
        let n = read.len();
        let zero = _mm256_setzero_si256();
        let mut acc = zero;
        let mut i = 0usize;
        while i + 32 <= n {
            let a = _mm256_loadu_si256(win.as_ptr().add(i).cast());
            let b = _mm256_loadu_si256(read.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(scores.as_ptr().add(i).cast());
            let eq = _mm256_cmpeq_epi8(a, b);
            // Scores where the bases differ; SAD against zero is the
            // exact horizontal byte sum, landing in four u64 lanes.
            let sel = _mm256_andnot_si256(eq, s);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(sel, zero));
            i += 32;
        }
        let mut sum = hsum_epi64(acc);
        // 16-byte SSE step so short chunks (the serial scan's galloping
        // start) still run vectorized; the sub-16 remainder goes SWAR.
        if i + 16 <= n {
            let z = _mm_setzero_si128();
            let a = _mm_loadu_si128(win.as_ptr().add(i).cast());
            let b = _mm_loadu_si128(read.as_ptr().add(i).cast());
            let s = _mm_loadu_si128(scores.as_ptr().add(i).cast());
            let sad = _mm_sad_epu8(_mm_andnot_si128(_mm_cmpeq_epi8(a, b), s), z);
            sum += (_mm_cvtsi128_si64(sad) as u64).wrapping_add(_mm_extract_epi64(sad, 1) as u64);
            i += 16;
        }
        sum + super::fold_swar(&win[i..], &read[i..], &scores[i..])
    }

    /// # Safety
    ///
    /// As [`fold_avx2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_avx2_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
        let n = read.len();
        let zero = _mm256_setzero_si256();
        let ones = _mm256_set1_epi8(1);
        let mut acc = zero;
        let mut cnt = zero;
        let mut i = 0usize;
        while i + 32 <= n {
            let a = _mm256_loadu_si256(win.as_ptr().add(i).cast());
            let b = _mm256_loadu_si256(read.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(scores.as_ptr().add(i).cast());
            let eq = _mm256_cmpeq_epi8(a, b);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(_mm256_andnot_si256(eq, s), zero));
            cnt = _mm256_add_epi64(cnt, _mm256_sad_epu8(_mm256_andnot_si256(eq, ones), zero));
            i += 32;
        }
        let mut sum = hsum_epi64(acc);
        let mut count = hsum_epi64(cnt);
        if i + 16 <= n {
            let z = _mm_setzero_si128();
            let ones128 = _mm_set1_epi8(1);
            let a = _mm_loadu_si128(win.as_ptr().add(i).cast());
            let b = _mm_loadu_si128(read.as_ptr().add(i).cast());
            let s = _mm_loadu_si128(scores.as_ptr().add(i).cast());
            let eq = _mm_cmpeq_epi8(a, b);
            let sad = _mm_sad_epu8(_mm_andnot_si128(eq, s), z);
            let csad = _mm_sad_epu8(_mm_andnot_si128(eq, ones128), z);
            sum += (_mm_cvtsi128_si64(sad) as u64).wrapping_add(_mm_extract_epi64(sad, 1) as u64);
            count +=
                (_mm_cvtsi128_si64(csad) as u64).wrapping_add(_mm_extract_epi64(csad, 1) as u64);
            i += 16;
        }
        let (tail_sum, tail_count) = super::fold_swar_counted(&win[i..], &read[i..], &scores[i..]);
        (sum + tail_sum, count + tail_count)
    }

    /// The `k`-lane load mask for a tail of `rem` lanes (all lanes when
    /// `rem >= 64`).
    #[inline]
    fn tail_mask(rem: usize) -> u64 {
        if rem >= 64 {
            !0u64
        } else {
            (1u64 << rem) - 1
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512BW. Slice lengths must be
    /// equal (checked by the safe dispatcher). Tails use fault-suppressing
    /// masked loads, so no out-of-bounds byte is ever touched.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn fold_avx512(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
        let n = read.len();
        let zero = _mm512_setzero_si512();
        let mut acc = zero;
        let mut i = 0usize;
        while i < n {
            let mask = tail_mask(n - i);
            let a = _mm512_maskz_loadu_epi8(mask, win.as_ptr().add(i).cast());
            let b = _mm512_maskz_loadu_epi8(mask, read.as_ptr().add(i).cast());
            let s = _mm512_maskz_loadu_epi8(mask, scores.as_ptr().add(i).cast());
            // Masked-out lanes load zero on both sides, so they compare
            // equal and contribute nothing; `& mask` keeps that explicit.
            let neq = _mm512_cmpneq_epi8_mask(a, b) & mask;
            let sel = _mm512_maskz_mov_epi8(neq, s);
            acc = _mm512_add_epi64(acc, _mm512_sad_epu8(sel, zero));
            i += 64;
        }
        _mm512_reduce_add_epi64(acc) as u64
    }

    /// # Safety
    ///
    /// As [`fold_avx512`].
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn fold_avx512_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
        let n = read.len();
        let zero = _mm512_setzero_si512();
        let mut acc = zero;
        let mut count = 0u64;
        let mut i = 0usize;
        while i < n {
            let mask = tail_mask(n - i);
            let a = _mm512_maskz_loadu_epi8(mask, win.as_ptr().add(i).cast());
            let b = _mm512_maskz_loadu_epi8(mask, read.as_ptr().add(i).cast());
            let s = _mm512_maskz_loadu_epi8(mask, scores.as_ptr().add(i).cast());
            let neq = _mm512_cmpneq_epi8_mask(a, b) & mask;
            let sel = _mm512_maskz_mov_epi8(neq, s);
            acc = _mm512_add_epi64(acc, _mm512_sad_epu8(sel, zero));
            // The compare mask *is* the mismatch set: popcount it.
            count += u64::from(neq.count_ones());
            i += 64;
        }
        (_mm512_reduce_add_epi64(acc) as u64, count)
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. Slice lengths equal and ≤ 64 (checked
    /// by the safe dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn mask_avx2(win: &[u8], read: &[u8]) -> u64 {
        let n = read.len();
        let mut mask = 0u64;
        let mut i = 0usize;
        while i + 32 <= n {
            let a = _mm256_loadu_si256(win.as_ptr().add(i).cast());
            let b = _mm256_loadu_si256(read.as_ptr().add(i).cast());
            let eq = _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)) as u32;
            mask |= u64::from(!eq) << i;
            i += 32;
        }
        if i + 16 <= n {
            let a = _mm_loadu_si128(win.as_ptr().add(i).cast());
            let b = _mm_loadu_si128(read.as_ptr().add(i).cast());
            let eq = _mm_movemask_epi8(_mm_cmpeq_epi8(a, b)) as u32;
            mask |= (u64::from(!eq) & 0xFFFF) << i;
            i += 16;
        }
        while i < n {
            mask |= u64::from(win[i] != read[i]) << i;
            i += 1;
        }
        mask
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512BW. Slice lengths equal
    /// and ≤ 64 (checked by the safe dispatcher). The tail uses
    /// fault-suppressing masked loads, so no out-of-bounds byte is ever
    /// touched; masked-out lanes load zero on both sides and compare
    /// equal.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn mask_avx512(win: &[u8], read: &[u8]) -> u64 {
        let lanes = tail_mask(read.len());
        let a = _mm512_maskz_loadu_epi8(lanes, win.as_ptr().cast());
        let b = _mm512_maskz_loadu_epi8(lanes, read.as_ptr().cast());
        _mm512_cmpneq_epi8_mask(a, b) & lanes
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. Lengths checked by the safe
    /// dispatcher.
    #[target_feature(enable = "avx2")]
    pub unsafe fn serial_sweep_avx2(
        row: &[u8],
        row_len: usize,
        read: &[u8],
        scores: &[u8],
    ) -> super::SerialSweep {
        // The closure inherits this function's target features, so the
        // mask kernel inlines into the offset loop.
        super::serial_sweep_generic(row, row_len, read, scores, |w, r| unsafe {
            mask_avx2(w, r)
        })
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. Lengths checked by the safe
    /// dispatcher.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dense_sweep_avx2(
        row: &[u8],
        max_k: usize,
        read: &[u8],
        scores: &[u8],
    ) -> super::DenseSweep {
        // SAFETY: the closure runs inside this function's AVX2 scope,
        // on equal-length slices the generic loop cut from `row`.
        super::dense_sweep_generic(row, max_k, read, scores, |w, r, s| unsafe {
            fold_avx2(w, r, s)
        })
    }

    /// Read bases the offset-parallel sweeps expand onto the stack (a
    /// multiple of the 16-base expansion step); longer reads keep the
    /// per-offset loops.
    const PARALLEL_MAX_BASES: usize = 1024;

    /// `vpermw` index vectors for the prefix-min steps: entry `i` moves
    /// lane `max(j - 2^i, 0)` into lane `j`.
    const LANES_BACK: [[u16; 32]; 5] = {
        let mut idx = [[0u16; 32]; 5];
        let mut i = 0;
        while i < 5 {
            let mut j = 0;
            while j < 32 {
                idx[i][j] = j.saturating_sub(1 << i) as u16;
                j += 1;
            }
            i += 1;
        }
        idx
    };

    /// Inclusive prefix minimum over the 32 `u16` lanes of `x`: five
    /// Hillis–Steele steps. Lanes below the stride take lane 0, whose
    /// value their running minimum already covers, so no merge mask is
    /// needed.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn prefix_min_epu16(mut x: __m512i) -> __m512i {
        for idx in &LANES_BACK {
            let back = _mm512_loadu_si512(idx.as_ptr().cast());
            x = _mm512_min_epu16(x, _mm512_permutexvar_epi16(back, x));
        }
        x
    }

    /// The score total of `scores` and its scored length: the bases up to
    /// the last nonzero score.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn score_extent(scores: &[u8]) -> (u64, usize) {
        let zero = _mm512_setzero_si512();
        let mut total = zero;
        let mut n = 0usize;
        let mut i = 0usize;
        while i < scores.len() {
            let lanes = tail_mask(scores.len() - i);
            let s = _mm512_maskz_loadu_epi8(lanes, scores.as_ptr().add(i).cast());
            total = _mm512_add_epi64(total, _mm512_sad_epu8(s, zero));
            let scored = _mm512_test_epi8_mask(s, s);
            if scored != 0 {
                n = i + 64 - scored.leading_zeros() as usize;
            }
            i += 64;
        }
        (_mm512_reduce_add_epi64(total) as u64, n)
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX-512BW and POPCNT. `read` and
    /// `scores` have equal length `n`, and `n <= row_len <= row.len()`
    /// (checked by the safe dispatcher); see DESIGN.md §4f for why every
    /// masked load stays inside those slices.
    ///
    /// The offset-parallel sweep with pass 2 on (see
    /// [`offset_parallel_sweep`]). A read whose score total reaches
    /// 0xFFFF, or longer than [`PARALLEL_MAX_BASES`], walks each offset's
    /// mismatch masks instead, as the AVX2 arm does.
    #[target_feature(enable = "avx512f,avx512bw,popcnt")]
    pub unsafe fn serial_sweep_avx512(
        row: &[u8],
        row_len: usize,
        read: &[u8],
        scores: &[u8],
    ) -> super::SerialSweep {
        let n = read.len();
        if score_extent(scores).0 >= 0xFFFF || n > PARALLEL_MAX_BASES {
            // SAFETY: the closure runs inside this function's AVX-512F/BW
            // scope, on equal-length windows of at most 64 bases the
            // generic loop cut from `row` and `read`.
            return super::serial_sweep_generic(row, row_len, read, scores, |w, r| unsafe {
                mask_avx512(w, r)
            });
        }
        offset_parallel_sweep::<true>(row, row_len - n, read, scores, n)
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX-512BW and POPCNT. `read` and
    /// `scores` have equal length and `max_k + read.len() <= row.len()`
    /// (checked by the safe dispatcher); see DESIGN.md §4f for why every
    /// masked load stays inside those slices.
    ///
    /// The offset-parallel sweep with pass 2 off, over the bases up to the
    /// last scored one (trailing zero-score padding adds nothing to any
    /// offset). A read whose score total reaches 0xFFFF, or with more than
    /// [`PARALLEL_MAX_BASES`] scored bases, folds each offset in turn.
    #[target_feature(enable = "avx512f,avx512bw,popcnt")]
    pub unsafe fn dense_sweep_avx512(
        row: &[u8],
        max_k: usize,
        read: &[u8],
        scores: &[u8],
    ) -> super::DenseSweep {
        let (total, n) = score_extent(scores);
        if total >= 0xFFFF || n > PARALLEL_MAX_BASES {
            // SAFETY: the closure runs inside this function's AVX-512F/BW
            // scope, on equal-length slices the generic loop cut from `row`.
            return super::dense_sweep_generic(row, max_k, read, scores, |w, r, s| unsafe {
                fold_avx512(w, r, s)
            });
        }
        let sweep = offset_parallel_sweep::<false>(row, max_k, read, scores, n);
        super::DenseSweep {
            min_whd: sweep.min_whd,
            min_offset: sweep.min_offset,
            offsets_above_min: sweep.offsets_pruned,
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F, AVX-512BW and POPCNT.
    /// `read.len() == scores.len()`, `n <= read.len()`,
    /// `n <= PARALLEL_MAX_BASES`, `max_k + n <= row.len()`, and
    /// `scores[..n]` totals below 0xFFFF.
    ///
    /// Offsets `0..=max_k` against `read[..n]`, 64 consecutive offsets
    /// `k0 + j` to a block. **Pass 1** walks the read one base `b` at a
    /// time — one masked load of `row[k0 + b ..]`, one compare against
    /// the broadcast read code, two masked `u16` adds of the broadcast
    /// score — so lane `j` ends holding offset `k0 + j`'s WHD `W`. A
    /// prefix minimum with the carried running minimum folded in gives
    /// each offset's exclusive running minimum `E`; `W > E` is the
    /// offsets a sequential loop flags, and the last `W < E` the new
    /// minimum. The `u16` lanes are exact because the total stays below
    /// 0xFFFF (every read of at most 704 bases at Phred ≤ 93).
    ///
    /// With `SERIAL`, pass 1 also keeps each base's 64-offset mismatch
    /// mask, and **pass 2** replays them to charge the serial scan's
    /// visits. A pruned offset's WHD exceeds the minimum it is compared
    /// against, so it never lowers that minimum: the serial budget of
    /// offset `k` is exactly `E[k]`, and the offset stops at the first
    /// base where its running sum `P` exceeds it. The result's
    /// `offsets_pruned` is the `W > E` count either way.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,popcnt")]
    unsafe fn offset_parallel_sweep<const SERIAL: bool>(
        row: &[u8],
        max_k: usize,
        read: &[u8],
        scores: &[u8],
        n: usize,
    ) -> super::SerialSweep {
        // Expand each base's code into a 4-byte word (`code · 0x01010101`)
        // and its score into two `u16` halves (`score · 0x00010001`) once,
        // so the per-base broadcasts in the offset loop are plain loads.
        let mut code_words = std::mem::MaybeUninit::<[u32; PARALLEL_MAX_BASES]>::uninit();
        let mut score_words = std::mem::MaybeUninit::<[u32; PARALLEL_MAX_BASES]>::uninit();
        let mut neq_masks = std::mem::MaybeUninit::<[u64; PARALLEL_MAX_BASES]>::uninit();
        let code_words = code_words.as_mut_ptr().cast::<u32>();
        let score_words = score_words.as_mut_ptr().cast::<u32>();
        let neq_masks = neq_masks.as_mut_ptr().cast::<u64>();
        let bytes4 = _mm512_set1_epi32(0x0101_0101);
        let words2 = _mm512_set1_epi32(0x0001_0001);
        let mut i = 0usize;
        while i < n {
            // 16 bases per step; words `i..i + 16` stay below
            // `n.next_multiple_of(16) <= PARALLEL_MAX_BASES`.
            let lanes = tail_mask(n - i) & 0xFFFF;
            let c = _mm512_maskz_loadu_epi8(lanes, read.as_ptr().add(i).cast());
            let s = _mm512_maskz_loadu_epi8(lanes, scores.as_ptr().add(i).cast());
            let c = _mm512_mullo_epi32(_mm512_cvtepu8_epi32(_mm512_castsi512_si128(c)), bytes4);
            let s = _mm512_mullo_epi32(_mm512_cvtepu8_epi32(_mm512_castsi512_si128(s)), words2);
            _mm512_storeu_si512(code_words.add(i).cast(), c);
            _mm512_storeu_si512(score_words.add(i).cast(), s);
            i += 16;
        }

        let zero = _mm512_setzero_si512();
        let ones = _mm512_set1_epi16(-1);
        let last_lane = _mm512_set1_epi16(31);
        let prev_lane = _mm512_loadu_si512(LANES_BACK[0].as_ptr().cast());
        // The running minimum in every lane; 0xFFFF (above every valid
        // WHD) before offset 0.
        let mut carry = ones;
        let mut out = super::SerialSweep::START;
        let mut k0 = 0usize;
        while k0 <= max_k {
            let valid = tail_mask(max_k + 1 - k0);
            let (valid_lo, valid_hi) = (valid as u32, (valid >> 32) as u32);
            // Offsets past `max_k` sit at 0xFFFF and are never added to.
            let mut whd_lo = _mm512_maskz_mov_epi16(!valid_lo, ones);
            let mut whd_hi = _mm512_maskz_mov_epi16(!valid_hi, ones);
            let win = row.as_ptr().add(k0);
            // SAFETY: lane j loads `row[k0 + j + b]` only when
            // `k0 + j <= max_k`, and `b < n`, so every byte read is below
            // `max_k + n <= row.len()`; word `b < n` of each buffer was
            // written by the expansion above, and mask `b` is written
            // here before pass 2 reads it.
            for b in 0..n {
                let bases = _mm512_maskz_loadu_epi8(valid, win.add(b).cast());
                let code = _mm512_set1_epi32(*code_words.add(b) as i32);
                let neq = _mm512_mask_cmpneq_epi8_mask(valid, bases, code);
                if SERIAL {
                    *neq_masks.add(b) = neq;
                }
                let score = _mm512_set1_epi32(*score_words.add(b) as i32);
                whd_lo = _mm512_mask_add_epi16(whd_lo, neq as u32, whd_lo, score);
                whd_hi = _mm512_mask_add_epi16(whd_hi, (neq >> 32) as u32, whd_hi, score);
            }
            // Each offset's exclusive running minimum: the inclusive
            // prefix minimum with the carry folded in, shifted up a lane.
            let incl_lo = _mm512_min_epu16(prefix_min_epu16(whd_lo), carry);
            let mid = _mm512_permutexvar_epi16(last_lane, incl_lo);
            let incl_hi = _mm512_min_epu16(prefix_min_epu16(whd_hi), mid);
            let excl_lo = _mm512_mask_permutexvar_epi16(carry, !1, prev_lane, incl_lo);
            let excl_hi = _mm512_mask_permutexvar_epi16(mid, !1, prev_lane, incl_hi);
            carry = _mm512_permutexvar_epi16(last_lane, incl_hi);
            let pruned = u64::from(_mm512_mask_cmpgt_epu16_mask(valid_lo, whd_lo, excl_lo))
                | u64::from(_mm512_mask_cmpgt_epu16_mask(valid_hi, whd_hi, excl_hi)) << 32;
            out.offsets_pruned += u64::from(pruned.count_ones());
            // A new minimum is an offset strictly below its exclusive
            // minimum; the last one holds the block minimum at its first
            // offset, which keeps first-on-ties.
            let below = u64::from(_mm512_cmplt_epu16_mask(whd_lo, excl_lo))
                | u64::from(_mm512_cmplt_epu16_mask(whd_hi, excl_hi)) << 32;
            if below != 0 {
                out.min_offset = k0 + 63 - below.leading_zeros() as usize;
            }
            if SERIAL {
                // Pass 2: each base charges an accumulation to the offsets
                // still scanning where it mismatches, then a visit to those
                // whose running sum has not passed the budget. A pruned
                // offset's stop base is charged by the popcount after the
                // loop. `P <= total < 0xFFFF` and `E <= 0xFFFF`, so the
                // `u16` compare is exact.
                //
                // SAFETY: mask word `b < n` was written by this block's
                // pass 1 above, and score word `b` by the expansion.
                let (mut sum_lo, mut sum_hi) = (zero, zero);
                let mut live = valid;
                for b in 0..n {
                    let neq = *neq_masks.add(b);
                    out.accumulations += u64::from((neq & live).count_ones());
                    let score = _mm512_set1_epi32(*score_words.add(b) as i32);
                    sum_lo = _mm512_mask_add_epi16(sum_lo, neq as u32, sum_lo, score);
                    sum_hi = _mm512_mask_add_epi16(sum_hi, (neq >> 32) as u32, sum_hi, score);
                    live = u64::from(_mm512_mask_cmple_epu16_mask(valid_lo, sum_lo, excl_lo))
                        | u64::from(_mm512_mask_cmple_epu16_mask(valid_hi, sum_hi, excl_hi)) << 32;
                    out.visited += u64::from(live.count_ones());
                    if live == 0 {
                        break;
                    }
                }
                out.visited += u64::from(pruned.count_ones());
            }
            k0 += 64;
        }
        // Offset 0 always exists and sits below 0xFFFF, so the carry is
        // a real WHD.
        out.min_whd = u64::from(_mm_extract_epi16::<0>(_mm512_castsi512_si128(carry)) as u16);
        out
    }
}

// ---------------------------------------------------------------------------
// aarch64 NEON kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use std::arch::aarch64::*;

    /// # Safety
    ///
    /// The CPU must support NEON. Slice lengths must be equal (checked by
    /// the safe dispatcher).
    #[inline]
    #[target_feature(enable = "neon")]
    pub unsafe fn fold_neon(win: &[u8], read: &[u8], scores: &[u8]) -> u64 {
        let n = read.len();
        let mut sum = 0u64;
        let mut i = 0usize;
        while i + 16 <= n {
            let a = vld1q_u8(win.as_ptr().add(i));
            let b = vld1q_u8(read.as_ptr().add(i));
            let s = vld1q_u8(scores.as_ptr().add(i));
            let eq = vceqq_u8(a, b);
            // Scores where the bases differ, summed across the vector.
            sum += u64::from(vaddlvq_u8(vbicq_u8(s, eq)));
            i += 16;
        }
        while i < n {
            sum += u64::from(win[i] != read[i]) * u64::from(scores[i]);
            i += 1;
        }
        sum
    }

    /// # Safety
    ///
    /// As [`fold_neon`].
    #[target_feature(enable = "neon")]
    pub unsafe fn fold_neon_counted(win: &[u8], read: &[u8], scores: &[u8]) -> (u64, u64) {
        let n = read.len();
        let ones = vdupq_n_u8(1);
        let mut sum = 0u64;
        let mut count = 0u64;
        let mut i = 0usize;
        while i + 16 <= n {
            let a = vld1q_u8(win.as_ptr().add(i));
            let b = vld1q_u8(read.as_ptr().add(i));
            let s = vld1q_u8(scores.as_ptr().add(i));
            let eq = vceqq_u8(a, b);
            sum += u64::from(vaddlvq_u8(vbicq_u8(s, eq)));
            count += u64::from(vaddlvq_u8(vbicq_u8(ones, eq)));
            i += 16;
        }
        while i < n {
            let neq = u64::from(win[i] != read[i]);
            sum += neq * u64::from(scores[i]);
            count += neq;
            i += 1;
        }
        (sum, count)
    }

    /// # Safety
    ///
    /// The CPU must support NEON. Slice lengths equal and ≤ 64 (checked
    /// by the safe dispatcher).
    #[target_feature(enable = "neon")]
    pub unsafe fn mask_neon(win: &[u8], read: &[u8]) -> u64 {
        let n = read.len();
        let mut mask = 0u64;
        let mut i = 0usize;
        while i + 16 <= n {
            let a = vld1q_u8(win.as_ptr().add(i));
            let b = vld1q_u8(read.as_ptr().add(i));
            // 0xFF per mismatching lane, narrowed to a nibble per lane
            // (the standard aarch64 movemask: shift-right-narrow by 4
            // across u16 lanes), then one bit per nibble.
            let neq = vmvnq_u8(vceqq_u8(a, b));
            let nib = vshrn_n_u16(vreinterpretq_u16_u8(neq), 4);
            let bits = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
            let marks = bits & 0x1111_1111_1111_1111;
            // Gather nibble marks to one bit per lane: lane j's 0x1 at
            // bit 4j maps to bit 60 + (j % 16)... instead, peel the four
            // bit-planes — marks has one bit per 4, so fold pairs.
            let mut m = marks;
            let mut lane_mask = 0u64;
            while m != 0 {
                let bit = m.trailing_zeros() as u64;
                lane_mask |= 1u64 << (bit / 4);
                m &= m - 1;
            }
            mask |= lane_mask << i;
            i += 16;
        }
        while i < n {
            mask |= u64::from(win[i] != read[i]) << i;
            i += 1;
        }
        mask
    }

    /// # Safety
    ///
    /// The CPU must support NEON. Lengths checked by the safe
    /// dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn serial_sweep_neon(
        row: &[u8],
        row_len: usize,
        read: &[u8],
        scores: &[u8],
    ) -> super::SerialSweep {
        super::serial_sweep_generic(row, row_len, read, scores, |w, r| unsafe {
            mask_neon(w, r)
        })
    }

    /// # Safety
    ///
    /// The CPU must support NEON. Lengths checked by the safe
    /// dispatcher.
    #[target_feature(enable = "neon")]
    pub unsafe fn dense_sweep_neon(
        row: &[u8],
        max_k: usize,
        read: &[u8],
        scores: &[u8],
    ) -> super::DenseSweep {
        // SAFETY: the closure runs inside this function's NEON scope,
        // on equal-length slices the generic loop cut from `row`.
        super::dense_sweep_generic(row, max_k, read, scores, |w, r, s| unsafe {
            fold_neon(w, r, s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in KernelKind::ALL {
            assert_eq!(kind.name().parse::<KernelKind>().unwrap(), kind);
        }
        assert_eq!("AVX-512".parse::<KernelKind>().unwrap(), KernelKind::Avx512);
        assert!(matches!(
            "sse9".parse::<KernelKind>(),
            Err(KernelError::Unknown { .. })
        ));
    }

    #[test]
    fn scalar_and_swar_are_always_available() {
        let available = KernelKind::available();
        assert!(available.contains(&KernelKind::Scalar));
        assert!(available.contains(&KernelKind::Swar));
        assert!(KernelKind::best_available().is_available());
        assert!(available.contains(&active()));
    }

    #[test]
    fn resolve_honors_available_requests() {
        for kind in KernelKind::available() {
            assert_eq!(resolve(Ok(Some(kind))), (kind, None));
        }
        assert_eq!(resolve(Ok(None)), (KernelKind::best_available(), None));
    }

    #[test]
    fn resolve_falls_back_gracefully() {
        // Some kernel is always unavailable on any single CPU (Neon and
        // Avx512 cannot coexist).
        let missing = KernelKind::ALL
            .into_iter()
            .find(|k| !k.is_available())
            .expect("at least one kernel is foreign to this ISA");
        let (kind, err) = resolve(Ok(Some(missing)));
        assert!(kind.is_available());
        assert_eq!(
            err,
            Some(KernelError::Unavailable {
                requested: missing,
                fallback: kind
            })
        );
        // And an unknown name degrades the same way.
        let (kind, err) = resolve(Err(KernelError::Unknown {
            name: "quantum".into(),
        }));
        assert!(kind.is_available());
        assert!(matches!(err, Some(KernelError::Unknown { .. })));
    }

    #[test]
    fn error_messages_name_the_fallback() {
        let err = KernelError::Unavailable {
            requested: KernelKind::Neon,
            fallback: KernelKind::Avx2,
        };
        let text = err.to_string();
        assert!(text.contains("neon") && text.contains("avx2"), "{text}");
    }

    #[test]
    fn empty_and_singleton_folds() {
        for kind in KernelKind::available() {
            assert_eq!(fold_whd(kind, &[], &[], &[]), 0, "{kind}");
            assert_eq!(fold_whd_counted(kind, &[], &[], &[]), (0, 0), "{kind}");
            assert_eq!(fold_whd(kind, &[1], &[2], &[40]), 40, "{kind}");
            assert_eq!(fold_whd_counted(kind, &[1], &[1], &[40]), (0, 0), "{kind}");
        }
    }

    #[test]
    fn max_score_saturation_is_exact() {
        // 255-score mismatches at every lane: the largest per-chunk sums.
        for len in [7usize, 8, 15, 16, 31, 32, 63, 64, 65, 127, 128, 200] {
            let win = vec![1u8; len];
            let read = vec![2u8; len];
            let scores = vec![255u8; len];
            for kind in KernelKind::available() {
                assert_eq!(
                    fold_whd_counted(kind, &win, &read, &scores),
                    (255 * len as u64, len as u64),
                    "{kind} len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = fold_whd(KernelKind::Scalar, &[1, 2], &[1], &[3]);
    }

    /// The per-base serial scan written out longhand: the semantics
    /// every [`serial_sweep`] kind must reproduce.
    fn serial_sweep_reference(row: &[u8], read: &[u8], scores: &[u8]) -> SerialSweep {
        let n = read.len();
        let mut out = SerialSweep::START;
        for k in 0..=row.len() - n {
            let mut whd = 0u64;
            let mut stopped = false;
            for i in 0..n {
                out.visited += 1;
                if row[k + i] != read[i] {
                    whd += u64::from(scores[i]);
                    out.accumulations += 1;
                    if whd > out.min_whd {
                        stopped = true;
                        break;
                    }
                }
            }
            if stopped {
                out.offsets_pruned += 1;
            } else if whd < out.min_whd {
                out.min_whd = whd;
                out.min_offset = k;
            }
        }
        out
    }

    /// [`dense_sweep`] as a per-offset [`fold_whd`] loop.
    fn dense_reference(row: &[u8], max_k: usize, read: &[u8], scores: &[u8]) -> DenseSweep {
        let n = read.len();
        let mut out = DenseSweep {
            min_whd: u64::MAX,
            min_offset: 0,
            offsets_above_min: 0,
        };
        for k in 0..=max_k {
            let whd = fold_whd(KernelKind::Scalar, &row[k..k + n], read, scores);
            if whd > out.min_whd {
                out.offsets_above_min += 1;
            } else if whd < out.min_whd {
                out.min_whd = whd;
                out.min_offset = k;
            }
        }
        out
    }

    /// Every available kind's serial sweep, asserted equal to the
    /// longhand reference.
    fn serial_all_kinds(row: &[u8], read: &[u8], scores: &[u8]) -> SerialSweep {
        let want = serial_sweep_reference(row, read, scores);
        for kind in KernelKind::available() {
            assert_eq!(
                serial_sweep(kind, row, row.len(), read, scores),
                want,
                "{kind}"
            );
        }
        want
    }

    #[test]
    fn serial_sweep_clamps_budgets_past_u16() {
        // 300 bases, every score 255 and every base mismatching at every
        // offset: each offset's WHD is 76,500 > 65,535. Every offset's
        // first chunk therefore sees a budget no `u16` lane can hold and
        // takes the clamp; later chunks carry the running sum into the
        // `u16` compare.
        let row = vec![1u8; 310];
        let read = vec![2u8; 300];
        let scores = vec![255u8; 300];
        let got = serial_all_kinds(&row, &read, &scores);
        assert_eq!(got.min_whd, 76_500);
        assert_eq!(got.min_offset, 0);
        // Offsets 1.. reach the minimum only at their last base and never
        // exceed it: they tie and complete.
        assert_eq!(got.offsets_pruned, 0);
        assert_eq!(got.visited, 11 * 300);
        assert_eq!(got.accumulations, 11 * 300);
    }

    #[test]
    fn serial_sweep_tie_is_neither_pruned_nor_a_new_minimum() {
        // Every offset mismatches only at base 2 (score 30), so offsets 1
        // and 2 finish exactly at the running minimum.
        let row = [1u8; 6];
        let read = [1u8, 1, 2, 1];
        let scores = [10u8, 10, 30, 10];
        let got = serial_all_kinds(&row, &read, &scores);
        assert_eq!(
            got,
            SerialSweep {
                min_whd: 30,
                min_offset: 0,
                visited: 3 * 4,
                accumulations: 3,
                offsets_pruned: 0,
            }
        );
    }

    #[test]
    fn serial_sweep_prunes_one_point_above_the_minimum_at_the_exact_base() {
        // A 70-base read (two chunks) against 71 bases: two offsets.
        // Offset 0 mismatches at base 11 (score 0) and base 69 (score
        // 20): WHD 20. Offset 1 mismatches at base 10 (score 15) and base
        // 68 (score 6), reaching 21 — one point above the minimum — at
        // base 68, inside the second chunk.
        let mut row = vec![1u8; 71];
        row[11] = 3;
        row[69] = 2;
        let read = vec![1u8; 70];
        let mut scores = vec![50u8; 70];
        scores[10] = 15;
        scores[11] = 0;
        scores[68] = 6;
        scores[69] = 20;
        let got = serial_all_kinds(&row, &read, &scores);
        assert_eq!(
            got,
            SerialSweep {
                min_whd: 20,
                min_offset: 0,
                visited: 70 + 69,
                accumulations: 2 + 2,
                offsets_pruned: 1,
            }
        );
    }

    #[test]
    fn serial_sweep_single_offset_and_empty_read() {
        let row = [1u8, 2, 3, 4, 5, 1, 2];
        let read = [1u8, 2, 4, 4, 5, 2, 2];
        let scores = [9u8, 8, 7, 6, 5, 4, 3];
        let got = serial_all_kinds(&row, &read, &scores);
        assert_eq!(
            got,
            SerialSweep {
                min_whd: 11,
                min_offset: 0,
                visited: 7,
                accumulations: 2,
                offsets_pruned: 0,
            }
        );
        let got = serial_all_kinds(&row, &[], &[]);
        assert_eq!(
            got,
            SerialSweep {
                min_whd: 0,
                min_offset: 0,
                visited: 0,
                accumulations: 0,
                offsets_pruned: 0,
            }
        );
    }

    /// A row of `C`s with `A` runs at `runs`, long enough for `offsets`
    /// offsets of an `n`-base read. Against an all-`A` read scored 10 per
    /// base, offset `k`'s WHD is 10 × the `C`s in `row[k..k + n]`.
    fn fixture_row(offsets: usize, n: usize, runs: &[(usize, usize)]) -> Vec<u8> {
        let mut row = vec![2u8; offsets - 1 + n];
        for &(start, len) in runs {
            row[start..start + len].fill(1);
        }
        row
    }

    /// The serial sweep of [`fixture_row`]'s all-`A` read.
    fn serial_fixture(offsets: usize, n: usize, runs: &[(usize, usize)]) -> SerialSweep {
        let row = fixture_row(offsets, n, runs);
        serial_all_kinds(&row, &vec![1u8; n], &vec![10u8; n])
    }

    #[test]
    fn serial_sweep_block_edges() {
        for offsets in [1usize, 63, 64, 65, 128, 129] {
            // The only exact hit is the last offset: every WHD only falls,
            // so nothing is pruned and every offset visits all 8 bases.
            let got = serial_fixture(offsets, 8, &[(offsets - 1, 8)]);
            assert_eq!((got.min_whd, got.min_offset), (0, offsets - 1), "{offsets}");
            assert_eq!(got.offsets_pruned, 0, "{offsets}");
            assert_eq!(got.visited, 8 * offsets as u64, "{offsets}");
            // The exact hit is offset 0: offset k stops at its first
            // mismatch, base 8 - k (base 0 from k = 8 on), with one
            // accumulation.
            let got = serial_fixture(offsets, 8, &[(0, 8)]);
            let visited: usize = 8
                + (1..offsets)
                    .map(|k| 8usize.saturating_sub(k) + 1)
                    .sum::<usize>();
            assert_eq!(
                got,
                SerialSweep {
                    min_whd: 0,
                    min_offset: 0,
                    visited: visited as u64,
                    accumulations: offsets as u64 - 1,
                    offsets_pruned: offsets as u64 - 1,
                },
                "{offsets}"
            );
        }
        // Minimum in lane 63 of block 0; every offset of block 1 sits
        // above it, so only the carry prunes them. Offsets 0..=55 tie at
        // 80 and 56..=62 fall: none of block 0 is pruned.
        let got = serial_fixture(128, 8, &[(63, 8)]);
        assert_eq!(
            got,
            SerialSweep {
                min_whd: 0,
                min_offset: 63,
                // Block 0 in full; offset 63 + m stops at base 8 - m for
                // m < 8 and at base 0 after.
                visited: 64 * 8 + (1..8).map(|m| 9 - m).sum::<u64>() + 57,
                accumulations: 56 * 8 + (1..=7).sum::<u64>() + 64,
                offsets_pruned: 64,
            }
        );
        // Minimum in lane 0 of later blocks.
        for start in [64usize, 128] {
            let got = serial_fixture(200, 8, &[(start, 8)]);
            assert_eq!((got.min_whd, got.min_offset), (0, start), "{start}");
            assert_eq!(got.offsets_pruned, 199 - start as u64, "{start}");
        }
        // A tie straddling the block boundary: offset 64 finishes at the
        // minimum, so it is neither pruned nor a new minimum and visits
        // all 8 bases.
        let got = serial_fixture(128, 8, &[(63, 9)]);
        assert_eq!(
            got,
            SerialSweep {
                min_whd: 0,
                min_offset: 63,
                // Offset 64 + m stops at base 8 - m for 0 < m < 8.
                visited: 64 * 8 + 8 + (1..8).map(|m| 9 - m).sum::<u64>() + 56,
                accumulations: 56 * 8 + (1..=7).sum::<u64>() + 63,
                offsets_pruned: 63,
            }
        );
    }

    #[test]
    fn serial_sweep_score_totals_at_the_u16_bound() {
        // A read of `scores.len()` `A`s against one `A` and then `C`s:
        // offset 0 completes at `total - scores[0]`, and every later
        // offset mismatches everywhere, so (with `scores[0]` the
        // smallest score) it runs past that budget only at the last base
        // and is pruned there. Totals of 65,534 (the
        // largest `u16`-lane total) and 65,535 (the smallest fallback
        // total), then 1,024 and 1,025 bases at score 1 (the last
        // offset-parallel read length and the first fallback one), each
        // over three 64-offset blocks.
        let mut cases = Vec::new();
        for first in [254u8, 255] {
            let mut scores = vec![255u8; 257];
            scores[0] = first;
            cases.push(scores);
        }
        cases.push(vec![1u8; 1024]);
        cases.push(vec![1u8; 1025]);
        for scores in cases {
            let n = scores.len();
            let total: u64 = scores.iter().map(|&s| u64::from(s)).sum();
            let mut row = vec![2u8; n + 150];
            row[0] = 1;
            let got = serial_all_kinds(&row, &vec![1u8; n], &scores);
            assert_eq!(
                got,
                SerialSweep {
                    min_whd: total - u64::from(scores[0]),
                    min_offset: 0,
                    visited: 151 * n as u64,
                    accumulations: (n - 1) as u64 + 150 * n as u64,
                    offsets_pruned: 150,
                },
                "{n} bases, total {total}"
            );
        }
    }

    /// Every available kind's dense sweep, asserted equal to the
    /// per-offset fold loop.
    fn dense_all_kinds(row: &[u8], max_k: usize, read: &[u8], scores: &[u8]) -> DenseSweep {
        let want = dense_reference(row, max_k, read, scores);
        for kind in KernelKind::available() {
            assert_eq!(dense_sweep(kind, row, max_k, read, scores), want, "{kind}");
        }
        want
    }

    /// The dense sweep of [`fixture_row`]'s all-`A` read.
    fn dense_fixture(offsets: usize, n: usize, runs: &[(usize, usize)]) -> DenseSweep {
        let row = fixture_row(offsets, n, runs);
        dense_all_kinds(&row, offsets - 1, &vec![1u8; n], &vec![10u8; n])
    }

    #[test]
    fn dense_sweep_block_edges() {
        // The only exact hit is the last offset, at every block-edge
        // count: a lane-62, lane-63, next-block lane-0 and lane-63
        // minimum.
        for offsets in [63usize, 64, 65, 128] {
            let got = dense_fixture(offsets, 8, &[(offsets - 1, 8)]);
            assert_eq!((got.min_whd, got.min_offset), (0, offsets - 1), "{offsets}");
            assert_eq!(got.offsets_above_min, 0, "{offsets}: the WHD only falls");
        }
        // Minimum in lane 63 of block 0; block 1's lanes all sit above
        // it, so the carry — not block 1's own minimum — must win.
        let got = dense_fixture(128, 8, &[(63, 8)]);
        assert_eq!((got.min_whd, got.min_offset), (0, 63));
        assert_eq!(got.offsets_above_min, 64);
        // Minimum in lane 0 of later blocks.
        for start in [64usize, 128] {
            let got = dense_fixture(200, 8, &[(start, 8)]);
            assert_eq!((got.min_whd, got.min_offset), (0, start), "{start}");
        }
        // A tie straddling the block boundary keeps the first offset, and
        // the tying offset 64 is not above the minimum.
        let got = dense_fixture(128, 8, &[(63, 9)]);
        assert_eq!((got.min_whd, got.min_offset), (0, 63));
        assert_eq!(got.offsets_above_min, 63);
        // Ties at lane 0 of two blocks.
        let got = dense_fixture(192, 8, &[(64, 8), (128, 8)]);
        assert_eq!((got.min_whd, got.min_offset), (0, 64));
    }

    #[test]
    fn dense_sweep_all_equal_empty_and_zero_scores() {
        // Every offset at the same WHD: offset 0 wins, nothing is above.
        let got = dense_fixture(150, 12, &[]);
        assert_eq!(
            got,
            DenseSweep {
                min_whd: 120,
                min_offset: 0,
                offsets_above_min: 0,
            }
        );
        // An empty read: every offset's WHD is 0.
        let row = vec![3u8; 200];
        let got = dense_all_kinds(&row, 199, &[], &[]);
        assert_eq!(
            got,
            DenseSweep {
                min_whd: 0,
                min_offset: 0,
                offsets_above_min: 0,
            }
        );
        // Zero scores mid-read and in the padding: mismatches there add
        // nothing, so offset 70 (whose only mismatches are at the
        // zero-score bases) ties offset 100's exact hit and wins.
        let mut row = vec![2u8; 300];
        row[100..140].fill(1);
        row[70..110].fill(1);
        row[70 + 12] = 2;
        row[70 + 25] = 2;
        let mut read = vec![1u8; 64];
        read[40..].fill(0);
        let mut scores = vec![20u8; 64];
        scores[12] = 0;
        scores[25] = 0;
        scores[40..].fill(0);
        let got = dense_all_kinds(&row, 300 - 64, &read, &scores);
        assert_eq!((got.min_whd, got.min_offset), (0, 70));
        let hit = fold_whd(KernelKind::Scalar, &row[100..164], &read, &scores);
        assert_eq!(hit, 0, "offset 100 is an exact hit");
    }

    #[test]
    fn dense_sweep_score_totals_at_the_u16_bound() {
        // Every base mismatches at every offset, so every WHD is the
        // read's score total: 65,534 (the largest `u16`-lane total) and
        // 65,535 (the smallest per-offset-fold total), over three blocks.
        for last in [254u8, 255] {
            let mut scores = vec![255u8; 257];
            scores[256] = last;
            let read = vec![1u8; 257];
            let row = vec![2u8; 150 + 257];
            let got = dense_all_kinds(&row, 150, &read, &scores);
            let total = 256 * 255 + u64::from(last);
            assert_eq!(
                got,
                DenseSweep {
                    min_whd: total,
                    min_offset: 0,
                    offsets_above_min: 0,
                }
            );
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases_env(256))]

            /// Every available kernel computes the scalar fold exactly,
            /// at every length alignment (tails included).
            #[test]
            fn all_kernels_match_scalar(
                len in 0usize..=200,
                win_raw in prop::collection::vec(0u8..=5, 200),
                read_raw in prop::collection::vec(0u8..=5, 200),
                scores_raw in prop::collection::vec(0u8..=255, 200),
            ) {
                let win = &win_raw[..len];
                let read = &read_raw[..len];
                let scores = &scores_raw[..len];
                let want = fold_whd_counted(KernelKind::Scalar, win, read, scores);
                for kind in KernelKind::available() {
                    prop_assert_eq!(fold_whd(kind, win, read, scores), want.0, "{} sum", kind);
                    prop_assert_eq!(fold_whd_counted(kind, win, read, scores), want, "{} counted", kind);
                }
            }

            /// Every available kernel's serial immediate-prune sweep is
            /// the scalar sweep, counts included: reads up to 320 bases
            /// (so the 64-base chunk carry is crossed), up to 200 offsets
            /// of slack (four 64-offset blocks) and the full score range.
            /// Reads are cut from the row with sparse substitutions, so
            /// running minima — and therefore prune budgets — span from
            /// zero to thousands; a high score floor pushes the read's
            /// score total past the `u16`-lane bound of 65,535.
            #[test]
            fn serial_sweep_matches_scalar(
                n in 0usize..=320,
                slack in 0usize..=200,
                row_raw in prop::collection::vec(1u8..=5, 520),
                scores_raw in prop::collection::vec(0u8..=255, 320),
                score_floor in prop_oneof![Just(0u8), Just(200u8)],
                cut_frac in 0.0f64..=1.0,
                subs in prop::collection::vec((0usize..320, 1u8..=5), 0..=12),
                pad in 0usize..=70,
            ) {
                let row_len = n + slack;
                let cut = (slack as f64 * cut_frac) as usize;
                let mut read = row_raw[cut..cut + n].to_vec();
                for &(pos, code) in &subs {
                    if n > 0 {
                        read[pos % n] = code;
                    }
                }
                let mut row = row_raw[..row_len].to_vec();
                row.resize(row_len + pad, 0);
                let scores: Vec<u8> = scores_raw[..n]
                    .iter()
                    .map(|&s| s.max(score_floor))
                    .collect();
                let scores = &scores[..];
                let want = serial_sweep(KernelKind::Scalar, &row, row_len, &read, scores);
                prop_assert_eq!(want, serial_sweep_reference(&row[..row_len], &read, scores));
                for kind in KernelKind::available() {
                    prop_assert_eq!(
                        serial_sweep(kind, &row, row_len, &read, scores),
                        want,
                        "{}",
                        kind
                    );
                }
            }

            /// The kernel-side dense sweep is a per-offset `fold_whd`
            /// loop over the padded lane arrays, for every kernel: reads
            /// up to 320 bases and up to 400 offsets (seven 64-offset
            /// blocks). Reads are cut from the row with substitutions, so
            /// minima and ties are real; a high score floor pushes the
            /// read's score total past the `u16`-lane bound of 65,535.
            #[test]
            fn dense_sweep_matches_fold_loop(
                n in 0usize..=320,
                slack in 0usize..=400,
                row_raw in prop::collection::vec(0u8..=5, 720),
                scores_raw in prop::collection::vec(0u8..=255, 320),
                score_floor in prop_oneof![Just(0u8), Just(200u8)],
                cut_frac in 0.0f64..=1.0,
                subs in prop::collection::vec((0usize..320, 1u8..=5), 0..=40),
            ) {
                let n_pad = n.next_multiple_of(64);
                let cut = (slack as f64 * cut_frac) as usize;
                let mut read = row_raw[cut..cut + n].to_vec();
                for &(pos, code) in &subs {
                    if n > 0 {
                        read[pos % n] = code;
                    }
                }
                read.resize(n_pad, 0);
                let mut scores: Vec<u8> = scores_raw[..n]
                    .iter()
                    .map(|&s| s.max(score_floor))
                    .collect();
                scores.resize(n_pad, 0);
                let max_k = slack;
                let mut row = row_raw[..n + slack].to_vec();
                row.resize(max_k + n_pad, 0);
                let want = dense_reference(&row, max_k, &read, &scores);
                for kind in KernelKind::available() {
                    prop_assert_eq!(
                        dense_sweep(kind, &row, max_k, &read, &scores),
                        want,
                        "{}",
                        kind
                    );
                }
            }

            /// The identity behind the functional oracle's derived
            /// multi-lane entries: on the same pair, every kernel's
            /// serial sweep and dense sweep find the same minimum at the
            /// same offset, and the offsets the serial sweep prunes are
            /// exactly those the dense sweep finds above the running
            /// minimum (a pruned offset never lowers the minimum, so both
            /// count `W > E`). Reads past 1,024 bases and score totals
            /// past 65,535 draw both AVX-512 fallbacks.
            #[test]
            fn serial_and_dense_sweeps_agree_on_minimum_and_prunes(
                n in prop_oneof![0usize..=320, 1000usize..=1100],
                slack in 0usize..=140,
                row_raw in prop::collection::vec(1u8..=5, 1240),
                scores_raw in prop::collection::vec(0u8..=255, 1100),
                (lo, hi) in prop_oneof![Just((0u8, 255u8)), Just((200, 255)), Just((0, 40))],
                cut_frac in 0.0f64..=1.0,
                subs in prop::collection::vec((0usize..1100, 1u8..=5), 0..=24),
            ) {
                let cut = (slack as f64 * cut_frac) as usize;
                let mut read = row_raw[cut..cut + n].to_vec();
                for &(pos, code) in &subs {
                    if n > 0 {
                        read[pos % n] = code;
                    }
                }
                let mut scores: Vec<u8> = scores_raw[..n]
                    .iter()
                    .map(|&s| lo + (u16::from(s) % (u16::from(hi - lo) + 1)) as u8)
                    .collect();
                let row_len = n + slack;
                let serial_row = &row_raw[..row_len];
                let n_pad = n.next_multiple_of(64);
                let mut dense_row = serial_row.to_vec();
                dense_row.resize(slack + n_pad, 0);
                for kind in KernelKind::available() {
                    let serial = serial_sweep(kind, serial_row, row_len, &read, &scores);
                    read.resize(n_pad, 0);
                    scores.resize(n_pad, 0);
                    let dense = dense_sweep(kind, &dense_row, slack, &read, &scores);
                    read.truncate(n);
                    scores.truncate(n);
                    prop_assert_eq!(
                        (serial.min_whd, serial.min_offset, serial.offsets_pruned),
                        (dense.min_whd, dense.min_offset, dense.offsets_above_min),
                        "{}",
                        kind
                    );
                }
            }

            /// Every available kernel computes the scalar mismatch
            /// bitmask exactly, at every window width up to 64.
            #[test]
            fn all_kernels_match_scalar_mask(
                len in 0usize..=64,
                win_raw in prop::collection::vec(0u8..=5, 64),
                read_raw in prop::collection::vec(0u8..=5, 64),
            ) {
                let win = &win_raw[..len];
                let read = &read_raw[..len];
                let want = mismatch_mask(KernelKind::Scalar, win, read);
                for kind in KernelKind::available() {
                    prop_assert_eq!(mismatch_mask(kind, win, read), want, "{} mask", kind);
                }
            }
        }
    }
}
