//! The load generator: closed loops on `nproc`-bounded connections and a
//! pipelined open loop with one sender and one receiver thread.
//!
//! Every request yields a [`Sample`] with three timestamps, all seconds
//! since the phase began: when the request was due, when its first byte
//! was written, and when its reply was fully read. In a closed loop a
//! request is due the moment the previous reply on its connection
//! arrived; in the open loop it is due at its slot in the schedule, so a
//! stall charges every request queued behind it.

use crate::gen::Rng;
use crate::net::{Conn, Handles};
use crate::trace::Recorder;
use crate::workload::{Request, Transport};
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in its stream (closed) or schedule (open).
    pub index: usize,
    pub conn: usize,
    /// Open-loop rate step the request belongs to (0 for closed loops).
    pub step: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// HTTP status (200 on the framed transport); 0 on a transport error.
    pub status: u16,
    pub reply: Vec<u8>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Learns the handle from a `session_create` reply.
pub fn note_handle(request: &Request, reply: &[u8], handles: &Handles) {
    if let Some(sess) = request.expect.creates() {
        let text = String::from_utf8_lossy(reply);
        if let Some(rest) = text.split("\"handle\":\"").nth(1) {
            if let Some(handle) = rest.split('"').next() {
                handles.set(sess, handle.to_string());
            }
        }
    }
}

pub struct Target<'a> {
    pub transport: Transport,
    pub http: &'a str,
    pub socket: &'a str,
}

/// Sends `requests` one at a time on a single connection (priming).
pub fn sequential(
    target: &Target,
    requests: &[Request],
    handles: &Handles,
) -> io::Result<Vec<Sample>> {
    let mut conn = Conn::open(target.transport, target.http, target.socket)?;
    let start = Instant::now();
    let mut out = Vec::with_capacity(requests.len());
    for (index, request) in requests.iter().enumerate() {
        let sent = secs(start);
        let (status, reply) = conn.call(request, handles)?;
        note_handle(request, &reply, handles);
        out.push(Sample {
            index,
            conn: 0,
            step: 0,
            due: sent,
            sent,
            done: secs(start),
            status,
            reply,
        });
    }
    Ok(out)
}

/// Closed loop: one thread and connection per stream, each cycling its
/// stream until `seconds` have passed. A connection stops only after a
/// multiple of `unit` requests, so each stream's mix stays exact.
pub fn closed(
    target: &Target,
    streams: &[Vec<Request>],
    seconds: f64,
    unit: usize,
    handles: &Handles,
    recorder: Option<&Recorder>,
) -> io::Result<(Vec<Sample>, f64)> {
    let start = Instant::now();
    let results: Vec<io::Result<Vec<Sample>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || -> io::Result<Vec<Sample>> {
                    let mut conn = Conn::open(target.transport, target.http, target.socket)?;
                    let mut out = Vec::new();
                    let mut due = secs(start);
                    for i in 0.. {
                        if i % unit == 0 && secs(start) >= seconds {
                            break;
                        }
                        let request = &stream[i % stream.len()];
                        let sent = secs(start);
                        conn.send(request, handles)?;
                        let wrote = secs(start);
                        let (status, reply) = conn.recv()?;
                        let done = secs(start);
                        if let Some(rec) = recorder {
                            let id = rec.request_id(c, i);
                            rec.span("loadgen:send", id, c, sent, wrote);
                            rec.span("loadgen:recv", id, c, wrote, done);
                            rec.span("request", id, c, due, done);
                        }
                        out.push(Sample {
                            index: i % stream.len(),
                            conn: c,
                            step: 0,
                            due,
                            sent,
                            done,
                            status,
                            reply,
                        });
                        due = done;
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    for r in results {
        samples.extend(r?);
    }
    let elapsed = samples.iter().map(|s| s.done).fold(0.0, f64::max);
    Ok((samples, elapsed))
}

/// Sleeps until shortly before `due`, then spins: a plain sleep
/// oversleeps by a scheduler tick on a virtual machine, which would show
/// up as lag in every open-loop latency.
fn wait_until(start: Instant, due: f64) {
    const SPIN: f64 = 300e-6;
    let now = secs(start);
    if due - now > SPIN {
        std::thread::sleep(Duration::from_secs_f64(due - now - SPIN));
    }
    while secs(start) < due {
        std::hint::spin_loop();
    }
}

/// One fixed-rate step of the open loop.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub rate: f64,
    pub seconds: f64,
}

/// Open loop on one pipelined HTTP connection: the sender writes request
/// `k` at its due time (Poisson arrivals at each step's rate), the receiver reads replies in order. Steps run
/// back to back; after each step `keep_going` decides (from that step's
/// samples) whether to offer the next one. Returns samples in send order.
pub fn open(
    target: &Target,
    requests: &[Request],
    steps: &[Step],
    handles: &Handles,
    recorder: Option<&Recorder>,
    seed: u64,
    keep_going: &(dyn Fn(&[Sample]) -> bool + Sync),
) -> io::Result<Vec<Sample>> {
    let mut conn = Conn::open(target.transport, target.http, target.socket)?;
    let mut rx_conn = conn.split_reader()?;
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, usize, f64, f64)>();
    let (step_tx, step_rx) = mpsc::channel::<bool>();
    std::thread::scope(|scope| -> io::Result<Vec<Sample>> {
        let sender = scope.spawn(move || -> io::Result<()> {
            let mut k = 0usize;
            let mut step_start = 0.0;
            for (s, step) in steps.iter().enumerate() {
                // Poisson arrivals: independent clients, seeded schedule.
                let mut arrivals = Rng::derive(seed, 100 + s as u64);
                let mut due = step_start;
                loop {
                    due += -(1.0 - arrivals.unit()).ln() / step.rate;
                    if due >= step_start + step.seconds || k >= requests.len() {
                        break;
                    }
                    wait_until(start, due);
                    let sent = secs(start);
                    conn.send(&requests[k], handles)?;
                    if let Some(rec) = recorder {
                        let id = rec.request_id(0, k);
                        rec.span("loadgen:send", id, 0, sent, secs(start));
                    }
                    if tx.send((k, s, due, sent)).is_err() {
                        return Ok(());
                    }
                    k += 1;
                }
                step_start += step.seconds;
                // Marker: the receiver answers whether to run the next step.
                if tx.send((usize::MAX, s, 0.0, 0.0)).is_err() {
                    return Ok(());
                }
                if s + 1 < steps.len() && !step_rx.recv().unwrap_or(false) {
                    break;
                }
                // Restart the schedule clock for the next step.
                step_start = step_start.max(secs(start));
            }
            Ok(())
        });
        let mut samples: Vec<Sample> = Vec::new();
        let mut step_first = 0usize;
        while let Ok((k, s, due, sent)) = rx.recv() {
            if k == usize::MAX {
                let go = keep_going(&samples[step_first..]);
                step_first = samples.len();
                let _ = step_tx.send(go);
                continue;
            }
            let (status, reply) = rx_conn.recv()?;
            let done = secs(start);
            note_handle(&requests[k], &reply, handles);
            if let Some(rec) = recorder {
                let id = rec.request_id(0, k);
                rec.span("loadgen:recv", id, 0, sent, done);
                rec.span("request", id, 0, due, done);
            }
            samples.push(Sample {
                index: k,
                conn: 0,
                step: s,
                due,
                sent,
                done,
                status,
                reply,
            });
        }
        sender.join().expect("sender thread panicked")?;
        Ok(samples)
    })
}
