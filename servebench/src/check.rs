//! The output check: served bodies against the in-process render of the
//! same request.

use crate::drive::Exchange;
use olive_api::{GenOptions, JsonValue};
use olive_serve::protocol::{EvalRequest, GenerateRequest};
use std::collections::BTreeMap;

/// What the daemon must answer to `body` on `path`, rendered in-process
/// exactly as the serving determinism contract defines it.
pub fn render(path: &str, body: &str) -> Result<String, String> {
    let json = JsonValue::parse(body).map_err(|e| e.to_string())?;
    if path == "/v1/generate" {
        let req = GenerateRequest::decode(&json).map_err(|e| e.0)?;
        let options = GenOptions::new()
            .prompt_tokens(req.prompt_tokens)
            .max_new_tokens(req.max_new_tokens);
        Ok(req
            .pipeline()
            .generation(options)
            .without_wall_times()
            .to_json())
    } else {
        let req = EvalRequest::decode(&json).map_err(|e| e.0)?;
        Ok(req.pipeline().run().without_wall_times().to_json())
    }
}

/// Body → the reply the daemon must send.
pub type Expected = BTreeMap<String, String>;

/// The expected reply for every body in `bodies`.
pub fn expected(path: &str, bodies: &[&str]) -> Result<Expected, String> {
    bodies
        .iter()
        .map(|&b| Ok((b.to_string(), render(path, b)?)))
        .collect()
}

/// Outcome of checking one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub sent: usize,
    /// Non-200 replies and transport errors.
    pub errors: usize,
    /// 200 replies whose bytes differ from the in-process render.
    pub mismatches: usize,
    /// Replies byte-compared.
    pub compared: usize,
}

impl Tally {
    pub fn failed(&self) -> usize {
        self.errors + self.mismatches
    }

    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.compared += other.compared;
    }
}

/// Checks `exchanges` of a pass that sent `bodies`: every reply must be a
/// 200, and every reply to a body with an expected render must equal it
/// byte for byte.
pub fn tally(exchanges: &[Exchange], bodies: &[String], expected: &Expected) -> Tally {
    let mut t = Tally {
        sent: exchanges.len(),
        ..Tally::default()
    };
    for x in exchanges {
        let Some(reply) = x.ok() else {
            t.errors += 1;
            continue;
        };
        if let Some(want) = expected.get(&bodies[x.entry]) {
            t.compared += 1;
            if reply.body.as_bytes() != want.as_bytes() {
                t.mismatches += 1;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Reply;
    use crate::workload::eval_body;
    use std::time::Instant;

    fn exchange(entry: usize, body: &str) -> Exchange {
        let now = Instant::now();
        Exchange {
            entry,
            conn: 0,
            sent: now,
            reply: Ok(Reply {
                status: 200,
                body: body.to_string(),
                first_byte: now,
                done: now,
                chunks: Vec::new(),
                steps: Vec::new(),
            }),
        }
    }

    #[test]
    fn a_one_byte_corruption_is_caught() {
        let bodies = vec![eval_body(&["olive-4bit", "fp32"], 2, 5)];
        let expected = expected("/v1/eval", &[bodies[0].as_str()]).unwrap();
        let good = expected[&bodies[0]].clone();
        assert!(good.contains("\"spec\": \"olive-4bit\""), "{good}");
        let mut bytes = good.clone().into_bytes();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        let corrupt = String::from_utf8(bytes).unwrap();

        let clean = tally(
            &[exchange(0, &good), exchange(0, &good)],
            &bodies,
            &expected,
        );
        assert_eq!(clean.failed(), 0);
        assert_eq!(clean.compared, 2);

        let one_bad = tally(
            &[exchange(0, &good), exchange(0, &corrupt)],
            &bodies,
            &expected,
        );
        assert_eq!((one_bad.mismatches, one_bad.failed()), (1, 1));
    }

    #[test]
    fn generate_render_matches_the_streamed_fragments() {
        let body = crate::workload::gen_body(3)
            .replace("\"prompt_tokens\": 64", "\"prompt_tokens\": 4")
            .replace("\"max_new_tokens\": 64", "\"max_new_tokens\": 3");
        let rendered = render("/v1/generate", &body).unwrap();
        assert_eq!(rendered.matches("{\"token\": ").count(), 3);
        assert!(rendered.ends_with("\n  ]\n}\n"));
    }
}
