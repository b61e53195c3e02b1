//! Property tests of the `tseig batch` JSONL reader on hostile lines: a
//! valid line cut at a random byte, an `"id"` value that spells escaped
//! key names, and `NaN`/`inf` tokens in `"data"`. Each input line must
//! give exactly one output line and never a panic; a failing line
//! carries `"ok": false` with a structured error, and the other lines of
//! the batch come out byte-identical to a batch without the hostile line.

use proptest::prelude::*;
use std::cell::RefCell;
use std::io::{Cursor, Write};
use std::rc::Rc;
use tseig_cli::{run, Cli};

/// Collects the `-o` output in memory.
struct Sink(Rc<RefCell<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The output lines of `tseig batch` over `lines`, one worker.
fn batch(lines: &[String]) -> Vec<String> {
    let argv = "batch in.jsonl -o out.jsonl --nb 4 --threads 1".split(' ');
    let cli = Cli::parse(&argv.map(String::from).collect::<Vec<_>>()).unwrap();
    let input = lines.join("\n") + "\n";
    let out = Rc::new(RefCell::new(Vec::new()));
    let open = |_: &str| Ok(Cursor::new(input.as_bytes()));
    run(&cli, open, |_: &str| Ok(Sink(Rc::clone(&out)))).unwrap();
    let text = String::from_utf8(out.take()).unwrap();
    text.lines().map(String::from).collect()
}

/// One request: order, value seed, key order (one of the 24
/// permutations of the four keys) and element type.
type Req = (usize, u64, usize, usize);

fn requests() -> impl Strategy<Value = Vec<Req>> {
    prop::collection::vec((1usize..4, 0u64..1000, 0usize..24, 0usize..4), 3..4)
}

/// The data tokens of a diagonally dominant symmetric (Hermitian for
/// complex types) order-`n` matrix, column-major, complex as re,im.
fn entries(&(n, seed, _, tag): &Req) -> Vec<String> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 200) as f64 / 100.0 - 1.0
    };
    let mut a = vec![(0.0, 0.0); n * n];
    for j in 0..n {
        a[j + j * n] = (next() + n as f64 + 1.0, 0.0);
        for i in j + 1..n {
            let (x, y) = (next(), next());
            (a[i + j * n], a[j + i * n]) = ((x, y), (x, -y));
        }
    }
    let parts = |&(x, y): &(f64, f64)| [x, y].into_iter().take(if tag >= 2 { 2 } else { 1 });
    a.iter().flat_map(parts).map(|v| v.to_string()).collect()
}

/// One request line with the given id text (escapes as written) and
/// data tokens, its keys in the request's permutation.
fn line_with(&(n, _, order, tag): &Req, id: &str, data: &[String]) -> String {
    let mut fields = vec![
        format!("\"id\": \"{id}\""),
        format!("\"scalar\": \"{}\"", ["f64", "f32", "c64", "c32"][tag]),
        format!("\"n\": {n}"),
        format!("\"data\": [{}]", data.join(", ")),
    ];
    let keys: Vec<String> = (1..=4)
        .rev()
        .scan(order, |code, base| {
            let k = *code % base;
            *code /= base;
            Some(fields.remove(k))
        })
        .collect();
    format!("{{{}}}", keys.join(", "))
}

/// Run the batch with line `which` replaced by `hostile`, and the plain
/// batch; check one output line per input line and the other lines
/// untouched. Returns the hostile line's output and the plain one's.
fn hostile_at(reqs: &[Req], which: usize, hostile: String) -> (String, String) {
    let plain: Vec<String> = (0..3)
        .map(|k| line_with(&reqs[k], &format!("r{k}"), &entries(&reqs[k])))
        .collect();
    let mut lines = plain.clone();
    lines[which] = hostile;
    let (mut got, mut want) = (batch(&lines), batch(&plain));
    assert_eq!((got.len(), want.len()), (3, 3), "{:?}", lines[which]);
    for k in (0..3).filter(|&k| k != which) {
        assert_eq!(got[k], want[k]);
    }
    (got.swap_remove(which), want.swap_remove(which))
}

/// A failed request says so in its structured fields.
fn assert_structured_failure(out: &str) {
    assert!(out.contains("\"ok\": false"), "{out}");
    assert!(out.contains("\"error_kind\": \"") && out.contains("\"error\": \""));
    assert!(out.ends_with("\"}"), "{out}");
}

/// An output line after its id: element type, status and result bits.
fn after_id(out: &str) -> &str {
    &out[out.find("\", \"scalar\": ").unwrap_or(0)..]
}

/// Escaped key names, brackets, commas and escaped backslashes.
const FRAGMENTS: [&str; 9] = [
    r#"\"n\": 9"#,
    r#"\"data\": ["#,
    r#"\"id\": "#,
    r#"\"scalar\": \"c64\""#,
    r#"\\"#,
    "]",
    ", ",
    "}",
    "x",
];

/// Tokens Rust's float parser accepts but JSON does not.
const NON_FINITE: &str = "NaN nan inf -inf +inf infinity -infinity Infinity";

proptest! {
    #[test]
    fn a_truncated_line_fails_alone_or_solves_as_written(
        reqs in requests(),
        which in 0usize..3,
        cut in 0.0f64..1.0,
    ) {
        let mut text = line_with(&reqs[which], &format!("r{which}"), &entries(&reqs[which]));
        let len = text.len();
        text.truncate(1 + ((cut * (len - 1) as f64) as usize).min(len - 2));
        let (got, want) = hostile_at(&reqs, which, text);
        if got.contains("\"ok\": true") {
            // A cut line that still parses asked for the same problem.
            prop_assert_eq!(after_id(&got), after_id(&want));
        } else {
            assert_structured_failure(&got);
        }
    }

    #[test]
    fn an_id_spelling_escaped_keys_is_only_an_id(
        reqs in requests(),
        which in 0usize..3,
        frags in prop::collection::vec(0usize..9, 1..7),
    ) {
        let id: String = frags.iter().map(|&f| FRAGMENTS[f]).collect();
        let text = line_with(&reqs[which], &id, &entries(&reqs[which]));
        let (got, want) = hostile_at(&reqs, which, text);
        // Echoed as written, and solved as if the id were a plain one.
        prop_assert!(got.starts_with(&format!("{{\"id\": \"{id}\", \"scalar\": ")), "{}", got);
        prop_assert_eq!(after_id(&got), after_id(&want));
    }

    #[test]
    fn non_finite_tokens_fail_their_line(
        reqs in requests(),
        which in 0usize..3,
        hits in prop::collection::vec((0usize..18, 0usize..8), 1..4),
    ) {
        let mut data = entries(&reqs[which]);
        for &(at, token) in &hits {
            let at = at % data.len();
            data[at] = NON_FINITE.split(' ').nth(token).unwrap().to_string();
        }
        let text = line_with(&reqs[which], &format!("r{which}"), &data);
        assert_structured_failure(&hostile_at(&reqs, which, text).0);
    }
}
