//! Property suite for the JSON module: written trees parse back to
//! themselves, no byte string makes the parser panic, and nesting past
//! `MAX_DEPTH` is an error.

use mlp_json::{parse, Json, MAX_DEPTH};
use proptest::prelude::*;
use proptest::strategy::LazyGen;
use proptest::test_runner::TestRng;

/// A random string mixing ASCII, the characters the writer escapes and
/// multi-byte UTF-8.
fn gen_string(rng: &mut TestRng) -> String {
    const POOL: [char; 12] = [
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', '/', 'é', '😀',
    ];
    (0..rng.below(8))
        .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
        .collect()
}

/// A random tree at most `depth` containers deep. Floats are finite and
/// non-integral: the writer prints `3.0` as `3`, which reads back as an
/// integer, and non-finite floats as `null`.
fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.ratio(1, 2)),
        2 => Json::Int(rng.next_u64() as i64),
        3 => {
            let x = f64::from_bits(rng.next_u64());
            Json::Num(if x.is_finite() && x.fract() != 0.0 {
                x
            } else {
                0.5
            })
        }
        4 => Json::Str(gen_string(rng)),
        5 => Json::Arr(
            (0..rng.below(4))
                .map(|_| gen_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn arb_json() -> impl Strategy<Value = Json> {
    LazyGen::new(|rng: &mut TestRng| gen_json(rng, 4))
}

/// Bytes a JSON document is made of, so mutations reach deep into the
/// grammar instead of failing on the first byte.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"{}[]\":,\\ nutrefals0123456789-+.eE\x01\xc3\xa9";
    proptest::collection::vec(
        prop_oneof![
            any::<u8>(),
            any::<prop::sample::Index>().prop_map(|i| ALPHABET[i.index(ALPHABET.len())]),
        ],
        0..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_trees_parse_back(value in arb_json()) {
        let text = value.to_string();
        prop_assert_eq!(parse(&text), Ok(value.clone()), "text: {}", text);
    }

    #[test]
    fn random_bytes_never_panic(bytes in arb_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse(&text) {
            prop_assert!(e.offset <= text.len());
        }
    }

    #[test]
    fn mutated_documents_never_panic(
        value in arb_json(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        cut in any::<bool>(),
    ) {
        let mut bytes = value.to_string().into_bytes();
        let i = at.index(bytes.len());
        if cut {
            bytes.truncate(i);
        } else {
            bytes[i] = byte;
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse(&text) {
            prop_assert!(e.offset <= text.len());
        }
    }

    #[test]
    fn nesting_past_max_depth_is_an_error(
        extra in 1usize..200,
        open in prop_oneof![Just("["), Just("{\"k\": ")],
    ) {
        let close = if open == "[" { "]" } else { "}" };
        let n = MAX_DEPTH + extra;
        let doc = open.repeat(n) + "0" + &close.repeat(n);
        prop_assert!(parse(&doc).is_err());
        let ok = open.repeat(MAX_DEPTH) + "0" + &close.repeat(MAX_DEPTH);
        prop_assert!(parse(&ok).is_ok());
    }
}

/// A 1 MiB run of `[` is rejected, not a stack overflow, on a thread
/// with a 2 MiB stack (the size a connection thread gets).
#[test]
fn one_mebibyte_of_brackets_fails_on_a_small_stack() {
    let doc = "[".repeat(1 << 20);
    let result = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || parse(&doc).map(|_| ()))
        .unwrap()
        .join()
        .expect("parser thread must not crash");
    assert_eq!(result.unwrap_err().offset, MAX_DEPTH);
}
