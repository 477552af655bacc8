//! Protocol and delta fuzzing for the query service's stream loop.
//!
//! Random lines — raw bytes (not always UTF-8), valid requests cut at a
//! random byte, valid requests with one number replaced by `NaN`,
//! `Infinity`, `-1`, `1e999`, `4294967296` or `18446744073709551616`, and
//! values nested 129–300 levels deep, mixed with intact requests — go
//! through [`serve_stream`] at batch sizes 1 and 8. Every non-blank line
//! must get exactly one response line, nothing may panic, and a rejected
//! line must leave no trace: a fixed valid suffix sent after the fuzz
//! lines must answer byte for byte like a fresh engine that saw only the
//! fuzz lines answered `ok:true`.

use aheft_serve::engine::QueryEngine;
use aheft_serve::scenario::ScenarioParams;
use aheft_serve::server::serve_stream;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const JOBS: usize = 40;

fn engine() -> QueryEngine {
    QueryEngine::new(ScenarioParams { jobs: JOBS, resources: 4, seed: 3, finished: 0.5 }.build(), 1)
}

/// Intact requests covering every op and delta event.
fn valid_lines() -> Vec<String> {
    let scen = engine().store().load();
    let finished = |j| scen.snapshot.is_finished(j);
    let ready = scen
        .dag
        .topo_order()
        .iter()
        .find(|&&j| !finished(j) && scen.dag.preds(j).iter().all(|&(p, _)| finished(p)))
        .expect("a job whose inputs are done")
        .idx();
    let column = vec!["25"; JOBS].join(",");
    vec![
        r#"{"id":1,"op":"info"}"#.to_string(),
        r#"{"id":2,"op":"replan","policy":"aheft"}"#.to_string(),
        r#"{"id":3,"op":"place","job":30}"#.to_string(),
        r#"{"id":4,"op":"whatif","remove":[1]}"#.to_string(),
        format!(r#"{{"id":5,"op":"whatif","add":[[{column}]],"remove":[2]}}"#),
        r#"{"id":6,"op":"delta","event":"clock","clock":600}"#.to_string(),
        r#"{"id":7,"op":"delta","event":"left","resource":2}"#.to_string(),
        format!(r#"{{"id":8,"op":"delta","event":"joined","column":[{column}]}}"#),
        format!(
            r#"{{"id":9,"op":"delta","event":"finished","job":{ready},"resource":0,"time":650}}"#
        ),
        r#"{"id":10,"op":"stats"}"#.to_string(),
    ]
}

/// The suffix whose answers must not depend on rejected lines.
fn suffix() -> Vec<Vec<u8>> {
    let column = vec!["9"; JOBS].join(",");
    let mut lines = Vec::new();
    for policy in ["aheft", "aheft-noinsert"] {
        lines.extend([
            r#"{"id":901,"op":"info"}"#.to_string(),
            format!(r#"{{"id":902,"op":"replan","policy":"{policy}"}}"#),
            format!(r#"{{"id":903,"op":"place","job":30,"policy":"{policy}"}}"#),
            format!(r#"{{"id":904,"op":"whatif","remove":[0],"policy":"{policy}"}}"#),
            format!(r#"{{"id":905,"op":"whatif","add":[[{column}]],"policy":"{policy}"}}"#),
        ]);
    }
    lines.into_iter().map(String::into_bytes).collect()
}

const ODD_NUMBERS: [&str; 6] =
    ["NaN", "Infinity", "-1", "1e999", "4294967296", "18446744073709551616"];

/// Byte ranges of the JSON numbers in `line`.
fn numbers(line: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && i > 0 && matches!(b[i - 1], b':' | b'[' | b',') {
            let start = i;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// One fuzz line (never containing a newline).
fn fuzz_line(rng: &mut StdRng, valid: &[String]) -> Vec<u8> {
    let base = valid[rng.random_range(0..valid.len())].as_str();
    match rng.random_range(0..5) {
        0 => (0..rng.random_range(0..64))
            .map(|_| rng.random_range(0..=255u8))
            .map(|b| if b == b'\n' { b'{' } else { b })
            .collect(),
        1 => base.as_bytes()[..rng.random_range(0..base.len())].to_vec(),
        2 => {
            let spans = numbers(base);
            let (start, end) = spans[rng.random_range(0..spans.len())];
            let odd = ODD_NUMBERS[rng.random_range(0..ODD_NUMBERS.len())];
            format!("{}{odd}{}", &base[..start], &base[end..]).into_bytes()
        }
        3 => {
            let depth = rng.random_range(129..=300);
            let (open, close) = if rng.random_bool(0.5) { ("[", "]") } else { (r#"{"a":"#, "}") };
            let nested = format!("{}1{}", open.repeat(depth), close.repeat(depth));
            format!(r#"{{"id":{depth},"op":"info","pad":{nested}}}"#).into_bytes()
        }
        _ => base.as_bytes().to_vec(),
    }
}

/// Does `serve_stream` answer this line? (Blank UTF-8 lines are skipped.)
fn answered(line: &[u8]) -> bool {
    std::str::from_utf8(line).map_or(true, |s| !s.trim().is_empty())
}

fn serve(engine: &QueryEngine, batch: usize, lines: &[Vec<u8>]) -> String {
    let mut input = Vec::new();
    for line in lines {
        input.extend_from_slice(line);
        input.push(b'\n');
    }
    let mut out = Vec::new();
    serve_stream(engine, batch, input.as_slice(), &mut out).expect("in-memory I/O cannot fail");
    String::from_utf8(out).expect("responses are UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_line_gets_one_answer_and_rejections_leave_no_trace(
        (seed, n) in (0u64..1_000_000, 1usize..40)
    ) {
        let valid = valid_lines();
        let mut rng = StdRng::seed_from_u64(seed);
        let fuzz: Vec<Vec<u8>> = (0..n).map(|_| fuzz_line(&mut rng, &valid)).collect();
        let suffix = suffix();
        let all: Vec<Vec<u8>> = fuzz.iter().chain(&suffix).cloned().collect();
        let mut first: Option<String> = None;
        for batch in [1usize, 8] {
            let out = serve(&engine(), batch, &all);
            let responses: Vec<&str> = out.lines().collect();
            let expected = all.iter().filter(|l| answered(l)).count();
            prop_assert_eq!(responses.len(), expected, "batch {}: {}", batch, &out);
            prop_assert!(responses.iter().all(|r| r.starts_with("{\"id\":")), "{}", &out);
            // The lines the dirty engine accepted, and a fresh engine fed
            // only those.
            let accepted: Vec<Vec<u8>> = fuzz
                .iter()
                .filter(|l| answered(l))
                .zip(&responses)
                .filter(|(_, r)| r.split_once(',').is_some_and(|(_, t)| t.starts_with("\"ok\":true")))
                .map(|(l, _)| l.clone())
                .collect();
            let clean = engine();
            serve(&clean, 1, &accepted);
            let want = serve(&clean, 1, &suffix);
            let got = responses[responses.len() - suffix.len()..].join("\n") + "\n";
            prop_assert_eq!(&got, &want, "batch {}: rejected lines changed later answers", batch);
            match &first {
                None => first = Some(out),
                Some(one) => prop_assert_eq!(one, &out, "batch size changed the bytes"),
            }
        }
    }
}
