//! Edge reference gate: the bytes the reactor edge pushes back to a client
//! must be exactly what an in-process replay of the same frame script
//! through `f2pm::OnlinePredictor` predicts.
//!
//! The reactor is where everything around the shared shard/board data
//! plane lives — nonblocking reads, partial-frame tails, outbound staging,
//! backpressure parking, the draining close. The tests here drive a frame
//! script at a `reactors: 1` server and compare the pushed byte stream
//! with a reference built without any networking: the same datapoints fed
//! to an `OnlinePredictor` over the test's hand-built model
//! (`rttf = 1000 − 2 × swap_used`), each estimate encoded as the `Alert`
//! frame the server pushes under `threshold = ∞, hits = 1` (every estimate
//! alerts), and a `Fail` resetting the predictor.

use f2pm::OnlinePredictor;
use f2pm_features::AggregationConfig;
use f2pm_ml::linreg::LinearModel;
use f2pm_ml::SavedModel;
use f2pm_monitor::wire::{Message, PROTOCOL_VERSION};
use f2pm_monitor::{Datapoint, FeatureId};
use f2pm_serve::{AlertPolicy, ModelRegistry, PredictionServer, ServeConfig, ServeHandle};
use std::io::Read;
use std::net::TcpStream;

fn agg() -> AggregationConfig {
    AggregationConfig {
        window_s: 30.0,
        min_points: 2,
        ..AggregationConfig::default()
    }
}

fn model() -> SavedModel {
    SavedModel::Linear(LinearModel {
        intercept: 1000.0,
        coefficients: vec![-2.0, 0.0],
    })
}

fn columns() -> Vec<String> {
    vec!["swap_used".to_string(), "swap_used_slope".to_string()]
}

fn start_server(shards: usize) -> ServeHandle {
    let registry = ModelRegistry::new(model(), columns(), agg()).unwrap();
    PredictionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            shards,
            queue_cap: 64,
            batch_cap: 16,
            policy: AlertPolicy {
                rttf_threshold_s: f64::INFINITY,
                consecutive_hits: 1,
            },
            reactors: 1,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap()
}

/// One scripted client event. `t` values are assigned by position so any
/// generated script is a valid monotone guest timeline.
#[derive(Clone, Debug)]
enum Op {
    Dp { swap: f64 },
    Fail,
}

fn datapoint(t: f64, swap: f64) -> Datapoint {
    let mut d = Datapoint {
        t_gen: t,
        values: [1.0; 14],
    };
    d.set(FeatureId::SwapUsed, swap);
    d
}

/// The frame `ops[i]` sends.
fn frame(i: usize, op: &Op) -> Message {
    let t = i as f64 * 5.0;
    match op {
        Op::Dp { swap } => Message::Datapoint(datapoint(t, *swap)),
        Op::Fail => Message::Fail { t },
    }
}

/// The reference: replay `ops` as host `host` through an `OnlinePredictor`
/// and encode every estimate as the pushed `Alert` frame. Returns the
/// expected byte stream and the last estimate (if any window closed
/// since the last `Fail`).
fn reference(host: u32, ops: &[Op]) -> (Vec<u8>, Option<(f64, f64)>) {
    let mut predictor = OnlinePredictor::new(model().into_model(), &columns(), agg());
    let mut bytes = Vec::new();
    let mut last = None;
    for (i, op) in ops.iter().enumerate() {
        match frame(i, op) {
            Message::Datapoint(d) => {
                if let Some(rttf) = predictor.push(d) {
                    Message::Alert {
                        host_id: host,
                        t: d.t_gen,
                        rttf,
                        threshold: f64::INFINITY,
                    }
                    .write_to(&mut bytes)
                    .unwrap();
                    last = Some((d.t_gen, rttf));
                }
            }
            _ => {
                predictor.reset();
                last = None;
            }
        }
    }
    (bytes, last)
}

fn connect(server: &ServeHandle, host: u32) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    Message::Hello {
        version: PROTOCOL_VERSION,
        host_id: host,
    }
    .write_to(&mut stream)
    .unwrap();
    stream
}

/// Replay `ops` as host `host` against a reactor server, then return the
/// raw bytes the server pushed back (the alert stream, then EOF after the
/// draining close). Nothing else is ever pushed: the client sends no
/// predict/stats requests.
fn replay(shards: usize, host: u32, ops: &[Op]) -> Vec<u8> {
    let server = start_server(shards);
    let mut stream = connect(&server, host);
    for (i, op) in ops.iter().enumerate() {
        frame(i, op).write_to(&mut stream).unwrap();
    }
    // Bye sits behind every datapoint in the same ordered connection, so
    // the draining close releases the socket only after the shard worker
    // has pushed every alert the script earns.
    Message::Bye.write_to(&mut stream).unwrap();
    let mut pushed = Vec::new();
    stream.read_to_end(&mut pushed).unwrap();
    let snap = server.shutdown();
    assert_eq!(snap.dropped, 0);
    pushed
}

/// Decode a pushed byte stream into its alert payloads (for the failure
/// message — the equality assertion itself is on the raw bytes).
fn alerts_of(bytes: &[u8]) -> Vec<(f64, f64)> {
    let mut src = bytes;
    let mut out = Vec::new();
    while let Ok(Some(m)) = Message::read_from(&mut src) {
        if let Message::Alert { t, rttf, .. } = m {
            out.push((t, rttf));
        }
    }
    out
}

/// A long deterministic script — swap ramps with a mid-life `Fail` reset
/// — pushes exactly the reference's bytes.
#[test]
fn deterministic_script_pushes_the_reference_bytes() {
    let mut ops = Vec::new();
    for i in 0..240 {
        ops.push(Op::Dp {
            swap: 100.0 + (i % 40) as f64 * 7.0,
        });
        if i == 120 {
            ops.push(Op::Fail);
        }
    }
    let (expected, _) = reference(6, &ops);
    let pushed = replay(2, 6, &ops);
    assert!(
        alerts_of(&expected).len() >= 10,
        "script produced only {} alerts",
        alerts_of(&expected).len()
    );
    assert_eq!(
        pushed,
        expected,
        "reactor diverged from the reference: pushed {:?} vs expected {:?}",
        alerts_of(&pushed),
        alerts_of(&expected)
    );
}

/// After the stream quiesces, a predict round-trip answers the reference
/// replay's last estimate (the board holds what the predictor last said).
#[test]
fn predict_after_quiesce_answers_the_reference_estimate() {
    let ops: Vec<Op> = (0..8).map(|_| Op::Dp { swap: 150.0 }).collect();
    let (_, last) = reference(12, &ops);
    let (t, rttf) = last.expect("the script closes a window");

    let server = start_server(2);
    let mut stream = connect(&server, 12);
    for (i, op) in ops.iter().enumerate() {
        frame(i, op).write_to(&mut stream).unwrap();
    }
    // Quiesce: poll predict until the estimate lands (the worker
    // publishes asynchronously), then keep the frame.
    let reply = loop {
        Message::PredictRequest { host_id: 12 }
            .write_to(&mut stream)
            .unwrap();
        match Message::read_from(&mut stream).unwrap().unwrap() {
            m @ Message::RttfEstimate { rttf: Some(_), .. } => break m,
            Message::RttfEstimate { rttf: None, .. } => {
                std::thread::sleep(std::time::Duration::from_millis(2))
            }
            Message::Alert { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    };
    Message::Bye.write_to(&mut stream).unwrap();
    server.shutdown();
    assert_eq!(
        reply.encode(),
        Message::RttfEstimate {
            host_id: 12,
            t,
            rttf: Some(rttf),
            model_generation: 1,
        }
        .encode(),
        "predict reply diverged from the reference"
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Scripts mixing datapoints (varied swap levels, so alert payloads
    /// vary) with occasional life-ending `Fail`s.
    fn arb_script() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..8, 0.0f64..400.0), 1..60).prop_map(|raw| {
            raw.into_iter()
                .map(
                    |(pick, swap)| {
                        if pick == 0 {
                            Op::Fail
                        } else {
                            Op::Dp { swap }
                        }
                    },
                )
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any frame script pushes exactly the reference's bytes.
        #[test]
        fn any_script_pushes_the_reference_bytes(ops in arb_script(), host in 0u32..64) {
            let (expected, _) = reference(host, &ops);
            let pushed = replay(2, host, &ops);
            prop_assert_eq!(&pushed, &expected,
                "reactor diverged from the reference for {:?}: pushed {:?} vs expected {:?}",
                ops, alerts_of(&pushed), alerts_of(&expected));
        }
    }
}
