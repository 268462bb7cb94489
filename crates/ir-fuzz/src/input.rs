//! The fuzzer's genome: one [`FuzzInput`] describes everything a
//! differential execution needs — backend parameters, scheduling, an
//! optional fault plan, an optional serve-layer scenario and the targets
//! themselves — with a stable, line-oriented text encoding so cases can be
//! checked into `fuzz/corpus/` and replayed byte-for-byte.
//!
//! # Encoding
//!
//! ```text
//! irfuzz v1
//! params preset=iracc units=32 lanes=32 pruning=1 overhead=2 prune_latency=2
//! scheduling async
//! family long-read
//! fault seed=7 rates=3f50624dd2f1a9fc ... (6 hex f64 bit patterns)
//! serve shards=2 max_batch=32 watermark=256 deadline_ns=500000 arrivals=0,1250,2500
//! fleet nodes=3 vnodes=16 hop_ns=2000
//! ---
//! <ir_genome::tio target payload>
//! ```
//!
//! `family`, `fault`, `serve` and `fleet` lines are optional (an absent
//! `family` means the default short-read germline regime, and absent
//! `fleet` skips the fleet differential stage, which keeps every older
//! corpus case byte-stable). Every `f64` travels as the hex of
//! its bit pattern and every arrival as integer nanoseconds, so decode ∘
//! encode is the identity and no parse ever goes through a lossy decimal
//! round-trip.

use std::fmt::Write as _;

use ir_fpga::{FaultRates, FpgaParams, Scheduling};
use ir_genome::{tio, RealignmentTarget};
use ir_workloads::ShapeFamily;

/// Which paper configuration the backend parameters start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamsPreset {
    /// [`FpgaParams::serial`] — 1 lane, 400 MHz.
    Serial,
    /// [`FpgaParams::iracc`] — 32 lanes, 250 MHz.
    Iracc,
}

/// Backend parameters as a preset plus the fields the fuzzer mutates.
///
/// Storing the delta rather than a raw [`FpgaParams`] keeps the encoding
/// stable when unrelated parameter fields are added to the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamsSpec {
    /// Base preset supplying clock recipe, DMA shape and latencies.
    pub preset: ParamsPreset,
    /// Realignment units on the fabric.
    pub num_units: usize,
    /// HDC comparison lanes per unit.
    pub lanes: usize,
    /// Computation pruning enabled.
    pub pruning: bool,
    /// Fixed setup cycles per (consensus, read) pair.
    pub pair_overhead_cycles: u64,
}

impl ParamsSpec {
    /// The spec matching [`FpgaParams::iracc`] unchanged.
    pub fn iracc() -> Self {
        ParamsSpec::from_preset(ParamsPreset::Iracc)
    }

    /// The spec matching [`FpgaParams::serial`] unchanged.
    pub fn serial() -> Self {
        ParamsSpec::from_preset(ParamsPreset::Serial)
    }

    fn from_preset(preset: ParamsPreset) -> Self {
        let p = match preset {
            ParamsPreset::Serial => FpgaParams::serial(),
            ParamsPreset::Iracc => FpgaParams::iracc(),
        };
        ParamsSpec {
            preset,
            num_units: p.num_units,
            lanes: p.lanes,
            pruning: p.pruning,
            pair_overhead_cycles: p.pair_overhead_cycles,
        }
    }

    /// Materializes the full [`FpgaParams`].
    pub fn params(&self) -> FpgaParams {
        let base = match self.preset {
            ParamsPreset::Serial => FpgaParams::serial(),
            ParamsPreset::Iracc => FpgaParams::iracc(),
        };
        FpgaParams {
            num_units: self.num_units,
            lanes: self.lanes,
            pruning: self.pruning,
            pair_overhead_cycles: self.pair_overhead_cycles,
            ..base
        }
    }
}

/// Seeded fault injection for the resilient-path stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// RNG seed of the fault plan.
    pub seed: u64,
    /// Per-site fault probabilities (validated at decode).
    pub rates: FaultRates,
}

/// A serve-layer scenario: pool shape plus the arrival pattern.
///
/// Arrival times are integer nanoseconds; the executor converts them with
/// `ns as f64 * 1e-9`, which is deterministic on every host. Requests are
/// formed by zipping the input's targets with these times, so the list may
/// be longer than the target list (the zip truncates) but never shorter
/// than 1 when present.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Worker shards.
    pub shards: usize,
    /// Batcher size cap.
    pub max_batch: usize,
    /// Admission-control watermark.
    pub admission_watermark: usize,
    /// Batcher flush deadline in nanoseconds.
    pub flush_deadline_ns: u64,
    /// Sorted arrival times in nanoseconds, one per request.
    pub arrival_ns: Vec<u64>,
}

/// A fleet-layer scenario on top of a [`ServeSpec`]: topology for the
/// routed-fleet-vs-single-pool differential stage. Only meaningful when
/// the input also carries a serve scenario (the stage is skipped
/// otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSpec {
    /// Node count for the routing-invariance run (1 runs only the
    /// single-pool reference).
    pub nodes: usize,
    /// Virtual ring points per node.
    pub vnodes: usize,
    /// Inter-node hop latency in nanoseconds for the multi-node run (the
    /// 1-node reference always uses zero).
    pub hop_ns: u64,
}

/// One complete fuzz case.
#[derive(Debug, Clone)]
pub struct FuzzInput {
    /// Backend parameters.
    pub params: ParamsSpec,
    /// Scheduling scheme.
    pub scheduling: Scheduling,
    /// Extra kernel knob: prune-verdict latency in blocks (the serial
    /// design closes in 0, the 32-lane adder tree in 2).
    pub prune_latency_blocks: u64,
    /// Workload shape family the targets were drawn from; `None` means
    /// the default short-read germline regime (and encodes to nothing,
    /// keeping pre-family corpus cases byte-stable).
    pub family: Option<ShapeFamily>,
    /// Optional fault injection.
    pub fault: Option<FaultSpec>,
    /// Optional serve-layer scenario.
    pub serve: Option<ServeSpec>,
    /// Optional fleet topology riding on the serve scenario.
    pub fleet: Option<FleetSpec>,
    /// The realignment targets (always at least one).
    pub targets: Vec<RealignmentTarget>,
}

/// A malformed `.case` payload.
#[derive(Debug)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fuzz case: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn scheduling_name(s: Scheduling) -> &'static str {
    match s {
        Scheduling::Synchronous => "sync",
        Scheduling::SynchronousUnsorted => "sync_unsorted",
        Scheduling::SynchronousByWorstCase => "sync_worst",
        Scheduling::Asynchronous => "async",
    }
}

fn scheduling_from(name: &str) -> Result<Scheduling, DecodeError> {
    Ok(match name {
        "sync" => Scheduling::Synchronous,
        "sync_unsorted" => Scheduling::SynchronousUnsorted,
        "sync_worst" => Scheduling::SynchronousByWorstCase,
        "async" => Scheduling::Asynchronous,
        other => return Err(DecodeError(format!("unknown scheduling {other:?}"))),
    })
}

/// `key=value` lookup in a space-separated token list.
fn field<'a>(tokens: &'a [&str], key: &str) -> Result<&'a str, DecodeError> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| DecodeError(format!("missing field {key}")))
}

fn parse<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, DecodeError> {
    raw.parse()
        .map_err(|_| DecodeError(format!("bad {what}: {raw:?}")))
}

fn f64_bits(raw: &str) -> Result<f64, DecodeError> {
    let bits = u64::from_str_radix(raw, 16)
        .map_err(|_| DecodeError(format!("bad f64 bit pattern: {raw:?}")))?;
    Ok(f64::from_bits(bits))
}

impl FuzzInput {
    /// Serializes to the stable `.case` text format.
    pub fn encode(&self) -> String {
        let mut out = String::from("irfuzz v1\n");
        let p = &self.params;
        let preset = match p.preset {
            ParamsPreset::Serial => "serial",
            ParamsPreset::Iracc => "iracc",
        };
        let _ = writeln!(
            out,
            "params preset={preset} units={} lanes={} pruning={} overhead={} prune_latency={}",
            p.num_units,
            p.lanes,
            u8::from(p.pruning),
            p.pair_overhead_cycles,
            self.prune_latency_blocks,
        );
        let _ = writeln!(out, "scheduling {}", scheduling_name(self.scheduling));
        if let Some(family) = self.family {
            let _ = writeln!(out, "family {}", family.name());
        }
        if let Some(f) = &self.fault {
            let r = f.rates;
            let _ = writeln!(
                out,
                "fault seed={} rates={:016x} {:016x} {:016x} {:016x} {:016x} {:016x}",
                f.seed,
                r.dma_timeout.to_bits(),
                r.dma_truncation.to_bits(),
                r.response_drop.to_bits(),
                r.response_duplicate.to_bits(),
                r.unit_hang.to_bits(),
                r.output_bit_flip.to_bits(),
            );
        }
        if let Some(s) = &self.serve {
            let arrivals: Vec<String> = s.arrival_ns.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "serve shards={} max_batch={} watermark={} deadline_ns={} arrivals={}",
                s.shards,
                s.max_batch,
                s.admission_watermark,
                s.flush_deadline_ns,
                arrivals.join(","),
            );
        }
        if let Some(fl) = &self.fleet {
            let _ = writeln!(
                out,
                "fleet nodes={} vnodes={} hop_ns={}",
                fl.nodes, fl.vnodes, fl.hop_ns,
            );
        }
        out.push_str("---\n");
        let mut payload = Vec::new();
        tio::write_targets(&mut payload, &self.targets).expect("Vec<u8> writes are infallible");
        out.push_str(std::str::from_utf8(&payload).expect("tio output is ASCII"));
        out
    }

    /// Parses the `.case` text format.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] naming the offending line or field; fault rates
    /// outside `[0, 1]` and empty target lists are rejected here so every
    /// decoded input is executable.
    pub fn decode(text: &str) -> Result<Self, DecodeError> {
        let mut lines = text.lines();
        match lines.next() {
            Some("irfuzz v1") => {}
            other => return Err(DecodeError(format!("bad magic line {other:?}"))),
        }
        let mut params: Option<ParamsSpec> = None;
        let mut prune_latency_blocks = 0u64;
        let mut scheduling: Option<Scheduling> = None;
        let mut family = None;
        let mut fault = None;
        let mut serve = None;
        let mut fleet = None;
        let mut header_len = "irfuzz v1\n".len();
        for line in lines {
            header_len += line.len() + 1;
            if line == "---" {
                break;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.first().copied() {
                Some("params") => {
                    let preset = match field(&tokens, "preset")? {
                        "serial" => ParamsPreset::Serial,
                        "iracc" => ParamsPreset::Iracc,
                        other => return Err(DecodeError(format!("unknown preset {other:?}"))),
                    };
                    params = Some(ParamsSpec {
                        preset,
                        num_units: parse(field(&tokens, "units")?, "units")?,
                        lanes: parse(field(&tokens, "lanes")?, "lanes")?,
                        pruning: field(&tokens, "pruning")? == "1",
                        pair_overhead_cycles: parse(field(&tokens, "overhead")?, "overhead")?,
                    });
                    prune_latency_blocks =
                        parse(field(&tokens, "prune_latency")?, "prune_latency")?;
                }
                Some("scheduling") => {
                    let name = tokens
                        .get(1)
                        .ok_or_else(|| DecodeError("scheduling line missing value".into()))?;
                    scheduling = Some(scheduling_from(name)?);
                }
                Some("family") => {
                    let name = tokens
                        .get(1)
                        .ok_or_else(|| DecodeError("family line missing value".into()))?;
                    family = Some(name.parse::<ShapeFamily>().map_err(DecodeError)?);
                }
                Some("fault") => {
                    let seed = parse(field(&tokens, "seed")?, "fault seed")?;
                    let at = tokens
                        .iter()
                        .position(|t| t.starts_with("rates="))
                        .ok_or_else(|| DecodeError("fault line missing rates".into()))?;
                    let words: Vec<&str> = std::iter::once(&tokens[at]["rates=".len()..])
                        .chain(tokens[at + 1..].iter().copied())
                        .collect();
                    if words.len() != 6 {
                        return Err(DecodeError(format!(
                            "fault rates need 6 values, got {}",
                            words.len()
                        )));
                    }
                    let rates = FaultRates {
                        dma_timeout: f64_bits(words[0])?,
                        dma_truncation: f64_bits(words[1])?,
                        response_drop: f64_bits(words[2])?,
                        response_duplicate: f64_bits(words[3])?,
                        unit_hang: f64_bits(words[4])?,
                        output_bit_flip: f64_bits(words[5])?,
                    };
                    rates
                        .checked()
                        .map_err(|e| DecodeError(format!("degenerate fault rates: {e}")))?;
                    fault = Some(FaultSpec { seed, rates });
                }
                Some("serve") => {
                    let raw = field(&tokens, "arrivals")?;
                    let arrival_ns = raw
                        .split(',')
                        .map(|t| parse(t, "arrival"))
                        .collect::<Result<Vec<u64>, _>>()?;
                    if arrival_ns.is_empty() {
                        return Err(DecodeError("serve line with no arrivals".into()));
                    }
                    if arrival_ns.windows(2).any(|w| w[0] > w[1]) {
                        return Err(DecodeError("serve arrivals not sorted".into()));
                    }
                    serve = Some(ServeSpec {
                        shards: parse(field(&tokens, "shards")?, "shards")?,
                        max_batch: parse(field(&tokens, "max_batch")?, "max_batch")?,
                        admission_watermark: parse(field(&tokens, "watermark")?, "watermark")?,
                        flush_deadline_ns: parse(field(&tokens, "deadline_ns")?, "deadline_ns")?,
                        arrival_ns,
                    });
                }
                Some("fleet") => {
                    let nodes: usize = parse(field(&tokens, "nodes")?, "nodes")?;
                    let vnodes: usize = parse(field(&tokens, "vnodes")?, "vnodes")?;
                    if nodes == 0 || vnodes == 0 {
                        return Err(DecodeError("fleet needs nodes >= 1 and vnodes >= 1".into()));
                    }
                    fleet = Some(FleetSpec {
                        nodes,
                        vnodes,
                        hop_ns: parse(field(&tokens, "hop_ns")?, "hop_ns")?,
                    });
                }
                Some(other) => {
                    return Err(DecodeError(format!("unknown header line {other:?}")));
                }
                None => {}
            }
        }
        let params = params.ok_or_else(|| DecodeError("missing params line".into()))?;
        let scheduling = scheduling.ok_or_else(|| DecodeError("missing scheduling line".into()))?;
        let payload = &text[header_len.min(text.len())..];
        let targets = tio::read_targets(payload.as_bytes())
            .map_err(|e| DecodeError(format!("target payload: {e}")))?;
        if targets.is_empty() {
            return Err(DecodeError("case has no targets".into()));
        }
        Ok(FuzzInput {
            params,
            scheduling,
            prune_latency_blocks,
            family,
            fault,
            serve,
            fleet,
            targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_genome::{Qual, Read, Sequence};

    fn tiny_target() -> RealignmentTarget {
        let reference = Sequence::from_ascii(b"ACGTACGTACGT").unwrap();
        let alt = Sequence::from_ascii(b"ACGTACGAACGT").unwrap();
        let read = Read::new(
            "r0",
            Sequence::from_ascii(b"ACGT").unwrap(),
            Qual::uniform(30, 4).unwrap(),
            0,
        )
        .unwrap();
        RealignmentTarget::builder(100)
            .reference(reference)
            .consensus(alt)
            .read(read)
            .build()
            .unwrap()
    }

    fn sample() -> FuzzInput {
        FuzzInput {
            params: ParamsSpec {
                num_units: 3,
                ..ParamsSpec::iracc()
            },
            scheduling: Scheduling::SynchronousUnsorted,
            prune_latency_blocks: 2,
            family: Some(ShapeFamily::Metagenomic),
            fault: Some(FaultSpec {
                seed: 99,
                rates: FaultRates::uniform(0.125),
            }),
            serve: Some(ServeSpec {
                shards: 2,
                max_batch: 4,
                admission_watermark: 16,
                flush_deadline_ns: 250_000,
                arrival_ns: vec![0, 1_000, 2_500],
            }),
            fleet: Some(FleetSpec {
                nodes: 3,
                vnodes: 8,
                hop_ns: 2_000,
            }),
            targets: vec![tiny_target(), tiny_target()],
        }
    }

    #[test]
    fn encode_decode_is_the_identity() {
        let input = sample();
        let text = input.encode();
        let back = FuzzInput::decode(&text).unwrap();
        assert_eq!(back.encode(), text, "decode ∘ encode is stable");
        assert_eq!(back.params, input.params);
        assert_eq!(back.scheduling, input.scheduling);
        assert_eq!(back.family, input.family);
        assert_eq!(back.fault, input.fault);
        assert_eq!(back.serve, input.serve);
        assert_eq!(back.fleet, input.fleet);
        assert_eq!(back.targets, input.targets);
    }

    #[test]
    fn optional_sections_stay_optional() {
        let mut input = sample();
        input.family = None;
        input.fault = None;
        input.serve = None;
        input.fleet = None;
        let text = input.encode();
        assert!(!text.contains("\nfamily "));
        assert!(!text.contains("\nfault "));
        assert!(!text.contains("\nserve "));
        assert!(!text.contains("\nfleet "));
        let back = FuzzInput::decode(&text).unwrap();
        assert!(back.family.is_none() && back.fault.is_none() && back.serve.is_none());
        assert!(back.fleet.is_none());
    }

    #[test]
    fn degenerate_fleet_topologies_are_rejected() {
        let zero_nodes = sample().encode().replace("fleet nodes=3", "fleet nodes=0");
        assert!(FuzzInput::decode(&zero_nodes).is_err());
        let zero_vnodes = sample().encode().replace("vnodes=8", "vnodes=0");
        assert!(FuzzInput::decode(&zero_vnodes).is_err());
    }

    #[test]
    fn every_family_name_roundtrips_in_the_header() {
        for family in ShapeFamily::ALL {
            let mut input = sample();
            input.family = Some(family);
            let back = FuzzInput::decode(&input.encode()).unwrap();
            assert_eq!(back.family, Some(family));
        }
        let mangled = sample()
            .encode()
            .replace("family metagenomic", "family nanopore");
        assert!(FuzzInput::decode(&mangled).is_err());
    }

    #[test]
    fn fault_rates_survive_bitwise() {
        let mut input = sample();
        // A rate with no short decimal representation.
        input.fault = Some(FaultSpec {
            seed: 1,
            rates: FaultRates::uniform(0.1 + 0.2 - 0.2),
        });
        let back = FuzzInput::decode(&input.encode()).unwrap();
        let (a, b) = (input.fault.unwrap().rates, back.fault.unwrap().rates);
        assert_eq!(a.dma_timeout.to_bits(), b.dma_timeout.to_bits());
    }

    #[test]
    fn degenerate_cases_are_rejected() {
        for (mangle, why) in [
            (
                (|t: String| t.replace("irfuzz v1", "irfuzz v0")) as fn(String) -> String,
                "magic",
            ),
            (
                |t| t.replace("scheduling sync_unsorted\n", ""),
                "scheduling",
            ),
            (
                |t| t.replace("arrivals=0,1000,2500", "arrivals=5,1,9"),
                "sorted",
            ),
        ] {
            let text = mangle(sample().encode());
            assert!(FuzzInput::decode(&text).is_err(), "must reject: {why}");
        }
    }

    #[test]
    fn params_spec_materializes_overrides() {
        let spec = ParamsSpec {
            num_units: 7,
            lanes: 1,
            pruning: false,
            ..ParamsSpec::iracc()
        };
        let p = spec.params();
        assert_eq!(p.num_units, 7);
        assert_eq!(p.lanes, 1);
        assert!(!p.pruning);
        // Preset-supplied fields come through untouched.
        assert_eq!(p.cmd_latency_s, FpgaParams::iracc().cmd_latency_s);
    }
}
