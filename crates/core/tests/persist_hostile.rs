//! Hostile-file tests of the two persisted text formats, the importance
//! cache and the availability prior: a valid dump, mutated the ways a torn
//! write, a hand edit or a version skew would mutate it, must fail to load
//! with `PersistError::Parse` at the mutated line, without a panic and
//! without merging anything. An unmutated dump round-trips bit-exactly, and
//! so do the dumps checked in under `results/`.
//!
//! One limit is the cache format's, not the reader's: a cache record ends
//! in a variable-length availability mask, so a word added to or dropped
//! from a record that carries a mask reads as another, well-formed key.
//! Dropped words are therefore tested on the cache's mask-less records
//! only, and added words on the prior alone.

use dcta_core::availability::AvailabilityModel;
use dcta_core::cache::ImportanceCache;
use dcta_core::persist::PersistError;
use edgesim::node::NodeId;
use edgesim::trace::NodeExposure;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Cache,
    Prior,
}

/// A store of either format.
enum Store {
    Cache(Box<ImportanceCache>),
    Prior(AvailabilityModel),
}

impl Store {
    fn load_text(&self, text: &str) -> Result<usize, PersistError> {
        match self {
            Store::Cache(c) => c.load_text(text),
            Store::Prior(m) => m.load_text(text),
        }
    }

    fn to_text(&self) -> String {
        match self {
            Store::Cache(c) => c.to_text(),
            Store::Prior(m) => m.to_text(),
        }
    }
}

/// Any finite `f64`, subnormals and `-0.0` included.
fn finite(rng: &mut StdRng) -> f64 {
    loop {
        let v = f64::from_bits(rng.gen());
        if v.is_finite() {
            return v;
        }
    }
}

impl Format {
    fn empty(self) -> Store {
        match self {
            Format::Cache => Store::Cache(Box::default()),
            Format::Prior => Store::Prior(AvailabilityModel::default()),
        }
    }

    /// A store holding between one and a dozen random records.
    fn store(self, rng: &mut StdRng) -> Store {
        let records = rng.gen_range(1..=12);
        match self {
            Format::Cache => {
                let cache = ImportanceCache::new();
                for _ in 0..records {
                    // A third of the masks are empty; the rest span 1–3 words.
                    let len = if rng.gen_bool(1.0 / 3.0) { 0 } else { rng.gen_range(1..=150) };
                    let mask: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                    let (seed, evaluator, day) = (rng.gen(), rng.gen(), rng.gen());
                    let value = finite(rng);
                    let _ = cache
                        .lookup_or_compute(seed, evaluator, day, &mask, || Ok::<f64, ()>(value));
                }
                Store::Cache(Box::new(cache))
            }
            Format::Prior => {
                let model = AvailabilityModel::default();
                let mut exposures = || -> Vec<NodeExposure> {
                    (0..records)
                        .map(|_| NodeExposure {
                            node: NodeId(rng.gen_range(0..1000)),
                            up_s: rng.gen_range(0.0..5e3),
                            down_s: rng.gen_range(0.0..5e3),
                            crashes: rng.gen_range(0..4),
                        })
                        .collect()
                };
                model.absorb(&exposures());
                model.advance_round();
                // Leave buffered ticks in the dump too.
                model.absorb(&exposures());
                Store::Prior(model)
            }
        }
    }

    /// Word positions holding an `f64` that must be finite.
    fn value_words(self) -> &'static [usize] {
        match self {
            Format::Cache => &[3],
            Format::Prior => &[1, 2],
        }
    }

    /// Whether a word dropped from a record of `words` words, or added to
    /// it, is a malformed record rather than another key.
    fn width_is_fixed(self, words: usize) -> bool {
        match self {
            Format::Cache => words == 4,
            Format::Prior => true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    TruncateMidWord,
    DropWord,
    AddWord,
    NonHexWord,
    NonFiniteValue,
    DuplicateLine,
    BumpHeader,
}

const MUTATIONS: [Mutation; 7] = [
    Mutation::TruncateMidWord,
    Mutation::DropWord,
    Mutation::AddWord,
    Mutation::NonHexWord,
    Mutation::NonFiniteValue,
    Mutation::DuplicateLine,
    Mutation::BumpHeader,
];

fn words(line: &str) -> Vec<String> {
    line.split(' ').map(str::to_string).collect()
}

/// `dump` with `mutation` applied to a random record, and the 1-based line
/// the load must reject; `None` where the format cannot tell the mutation
/// from a valid dump.
fn mutate(
    format: Format,
    dump: &str,
    mutation: Mutation,
    rng: &mut StdRng,
) -> Option<(String, usize)> {
    let mut lines: Vec<String> = dump.lines().map(str::to_string).collect();
    // Records are lines[1..]; lines[r] is line r + 1 of the file.
    let mut r = rng.gen_range(1..lines.len());
    let mut ws = words(&lines[r]);
    let k = rng.gen_range(0..ws.len());
    let bad_line = match mutation {
        Mutation::TruncateMidWord => {
            // A torn write: the file ends inside word `k` of record `r`.
            ws.truncate(k + 1);
            let keep = rng.gen_range(1..16);
            ws[k].truncate(keep);
            lines.truncate(r + 1);
            lines[r] = ws.join(" ");
            return Some((lines.join("\n"), r + 1));
        }
        Mutation::DropWord | Mutation::AddWord => {
            let fixed: Vec<usize> = (1..lines.len())
                .filter(|&i| format.width_is_fixed(words(&lines[i]).len()))
                .collect();
            if fixed.is_empty()
                || (format == Format::Cache && matches!(mutation, Mutation::AddWord))
            {
                return None;
            }
            r = fixed[rng.gen_range(0..fixed.len())];
            ws = words(&lines[r]);
            if matches!(mutation, Mutation::DropWord) {
                ws.remove(rng.gen_range(0..ws.len()));
            } else {
                ws.insert(rng.gen_range(0..=ws.len()), format!("{:016x}", rng.gen::<u64>()));
            }
            r + 1
        }
        Mutation::NonHexWord => {
            const JUNK: &[u8] = b"ghxzGXZ_-+.";
            let mut bytes = ws[k].clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = JUNK[rng.gen_range(0..JUNK.len())];
            ws[k] = String::from_utf8(bytes).expect("ASCII");
            r + 1
        }
        Mutation::NonFiniteValue => {
            let bits = [
                f64::NAN.to_bits(),
                f64::NAN.to_bits() | 0xdead,
                (-f64::NAN).to_bits(),
                f64::INFINITY.to_bits(),
                f64::NEG_INFINITY.to_bits(),
            ];
            let slots = format.value_words();
            let slot = slots[rng.gen_range(0..slots.len())];
            ws[slot] = format!("{:016x}", bits[rng.gen_range(0..bits.len())]);
            r + 1
        }
        Mutation::DuplicateLine => {
            let copy = lines[r].clone();
            lines.insert(r + 1, copy);
            return Some((lines.join("\n") + "\n", r + 2));
        }
        Mutation::BumpHeader => {
            lines[0] = lines[0].replace(" v1", " v2");
            return Some((lines.join("\n") + "\n", 1));
        }
    };
    lines[r] = ws.join(" ");
    Some((lines.join("\n") + "\n", bad_line))
}

fn check_format(format: Format, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dump = format.store(&mut rng).to_text();
    let records = dump.lines().count() - 1;

    let fresh = format.empty();
    prop_assert_eq!(fresh.load_text(&dump).ok(), Some(records));
    prop_assert_eq!(fresh.to_text(), dump.clone(), "unmutated dump did not round-trip");

    for mutation in MUTATIONS {
        let Some((text, line)) = mutate(format, &dump, mutation, &mut rng) else { continue };
        let target = format.store(&mut rng);
        let before = target.to_text();
        match target.load_text(&text) {
            Err(PersistError::Parse { line: got, .. }) => {
                prop_assert_eq!(got, line, "{:?} {:?}:\n{}", format, mutation, text);
            }
            other => {
                return Err(TestCaseError::Fail(format!(
                    "{format:?} {mutation:?} loaded as {other:?}:\n{text}"
                )))
            }
        }
        prop_assert_eq!(target.to_text(), before, "{:?} {:?} merged", format, mutation);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn hostile_cache_dumps_are_rejected_at_the_mutated_line(seed in 0u64..u64::MAX) {
        check_format(Format::Cache, seed)?;
    }

    #[test]
    fn hostile_prior_dumps_are_rejected_at_the_mutated_line(seed in 0u64..u64::MAX) {
        check_format(Format::Prior, seed)?;
    }
}

/// The dumps `reproduce` last wrote still load, and write back byte for byte.
#[test]
fn checked_in_dumps_load_and_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let cache_path = dir.join("importance_cache.txt");
    let cache = ImportanceCache::new();
    let text = std::fs::read_to_string(&cache_path).expect("checked-in cache dump");
    assert_eq!(cache.load_file(&cache_path).unwrap(), text.lines().count() - 1);
    assert_eq!(cache.to_text(), text);

    let prior_path = dir.join("availability_prior.txt");
    let prior = AvailabilityModel::default();
    let text = std::fs::read_to_string(&prior_path).expect("checked-in prior dump");
    assert_eq!(prior.load_file(&prior_path).unwrap(), text.lines().count() - 1);
    assert_eq!(prior.to_text(), text);
}
