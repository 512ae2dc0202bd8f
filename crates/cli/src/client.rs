//! `vpoc query` — client side of the memo daemon protocol.
//!
//! Connects to a `vpoc serve` socket, sends one [`Request`] frame, and
//! reads [`Response`] frames until a terminal one arrives — cold
//! queries stream [`Response::Progress`] liveness frames first, which
//! render as stderr status lines. Memo answers render from the
//! [`FunctionRecord`] itself, with the same Table-3 row the campaign
//! report uses, so a daemon answer and a direct `vpoc explore` row read
//! identically.
//!
//! `--timeout MS` bounds the whole exchange: socket reads and writes
//! get deadlines, and [`Response::Overloaded`] replies are retried with
//! the daemon's own retry-after hint as the backoff until the deadline
//! expires. Without `--timeout`, overload is retried a few times with
//! the hinted backoff, then reported.

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use phase_order::campaign::store::{Completeness, FunctionRecord};
use phase_order::service::{ProtocolError, Request, Response, Served, PROTOCOL_VERSION};
use phase_order::wire::{read_frame, write_frame};

use crate::args;

/// Overload retries attempted when no `--timeout` bounds the exchange.
const DEFAULT_OVERLOAD_RETRIES: u32 = 4;

pub fn query_cmd(argv: &[String]) -> Result<(), String> {
    let mut rest = argv.to_vec();
    let socket = args::string(&mut rest, "--socket")?.ok_or("query: --socket PATH is required")?;
    let budget = args::value::<u64>(&mut rest, "--budget")?;
    let timeout_ms = args::value::<u64>(&mut rest, "--timeout")?;
    let list = args::switch(&mut rest, "--list");
    let telemetry = args::switch(&mut rest, "--telemetry");
    let shutdown = args::switch(&mut rest, "--shutdown");
    args::reject_unknown_flags(&rest, "query")?;
    if [list, telemetry, shutdown].iter().filter(|b| **b).count() > 1 {
        return Err("query: --list, --telemetry and --shutdown are mutually exclusive".into());
    }
    if timeout_ms == Some(0) {
        return Err("query: --timeout must be at least 1 millisecond".into());
    }

    let request = if list {
        Request::List
    } else if telemetry {
        Request::Telemetry
    } else if shutdown {
        Request::Shutdown
    } else {
        let function =
            rest.first().ok_or("query: missing function (or --list / --telemetry / --shutdown)")?;
        if rest.len() > 1 {
            return Err(format!("query: unexpected argument `{}`", rest[1]));
        }
        Request::Query { function: function.clone(), budget }
    };

    let response = exchange(&socket, &request, timeout_ms.map(Duration::from_millis))?;
    render(&response)
}

/// Runs the request to a terminal response, retrying overload with the
/// daemon's backoff hint — bounded by `timeout` when given, by
/// [`DEFAULT_OVERLOAD_RETRIES`] otherwise.
fn exchange(
    socket: &str,
    request: &Request,
    timeout: Option<Duration>,
) -> Result<Response, String> {
    let deadline = timeout.map(|t| Instant::now() + t);
    let mut attempt = 0u32;
    loop {
        let response = roundtrip(socket, request, deadline)?;
        let Response::Overloaded { retry_after_ms } = response else {
            return Ok(response);
        };
        attempt += 1;
        let backoff = Duration::from_millis(retry_after_ms.clamp(50, 2000));
        let give_up = match deadline {
            // Bounded by the deadline: stop once the backoff would
            // overshoot it.
            Some(d) => Instant::now() + backoff >= d,
            None => attempt > DEFAULT_OVERLOAD_RETRIES,
        };
        if give_up {
            return Ok(response);
        }
        eprintln!(
            "query: daemon overloaded; retrying in {}ms (attempt {attempt})",
            backoff.as_millis()
        );
        std::thread::sleep(backoff);
    }
}

/// One frame out, then frames in until a terminal response —
/// [`Response::Progress`] frames render as stderr status lines along
/// the way. `deadline` bounds connect/read/write via socket timeouts.
fn roundtrip(
    socket: &str,
    request: &Request,
    deadline: Option<Instant>,
) -> Result<Response, String> {
    let budget = |op: &str| -> Result<Option<Duration>, String> {
        match deadline {
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(format!("query: {socket}: timed out {op}"));
                }
                Ok(Some(left))
            }
            None => Ok(None),
        }
    };
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| format!("query: {socket}: {e} (is `vpoc serve` running?)"))?;
    stream.set_write_timeout(budget("connecting")?).map_err(|e| format!("query: {e}"))?;
    write_frame(&mut stream, &request.to_bytes()).map_err(|e| format!("query: {socket}: {e}"))?;
    loop {
        stream
            .set_read_timeout(budget("waiting for the daemon")?)
            .map_err(|e| format!("query: {e}"))?;
        let payload = read_frame(&mut stream).map_err(|e| {
            if e.is_timeout() {
                format!("query: {socket}: timed out waiting for the daemon")
            } else {
                format!("query: {socket}: {e}")
            }
        })?;
        let response = decode(socket, &payload)?;
        match response {
            Response::Progress { function, level, expanded, remaining } => eprintln!(
                "query: {function}: level {level} merged, {expanded} expanded, \
                 {remaining} budget left"
            ),
            terminal => return Ok(terminal),
        }
    }
}

fn decode(socket: &str, payload: &[u8]) -> Result<Response, String> {
    Response::from_bytes(payload).map_err(|e| match e {
        // A version skew is an operational situation (daemon from an
        // older build still serving), not a corrupt frame — name both
        // ends so the operator knows which process to upgrade.
        ProtocolError::Version { got } => format!(
            "query: {socket}: daemon speaks protocol version {got}, this client speaks \
             {PROTOCOL_VERSION}; restart the daemon from the same build as the client"
        ),
        e => format!("query: {socket}: {e}"),
    })
}

fn render(response: &Response) -> Result<(), String> {
    match response {
        Response::Memo { record, served } => {
            match served {
                Served::Warm => println!("warm: answered from the memo store"),
                Served::Cold { expanded } => {
                    println!("cold: expanded {expanded} parent instance(s) this request")
                }
            }
            println!("{}", FunctionRecord::table3_header());
            println!("{}", record.table3_row());
            match record.completeness() {
                // A space with no leaves has no optimal ordering to show.
                Completeness::Complete if record.leaves > 0 => println!(
                    "optimal ordering: {} ({} instructions)",
                    record.best_sequence, record.best_insts
                ),
                Completeness::Complete => {}
                Completeness::Truncated { level } => {
                    println!("truncated at level {level} (permanent under the daemon's bounds)")
                }
                Completeness::Frontier { level } => {
                    println!("suspended at level {level} — best-so-far above; re-query to deepen")
                }
            }
            Ok(())
        }
        Response::List { entries } => {
            for e in entries {
                let state = match &e.state {
                    None => "unexplored".to_string(),
                    Some(c) => c.to_string(),
                };
                println!("{:<40} {state}", e.name);
            }
            Ok(())
        }
        Response::Telemetry { json } => {
            println!("{json}");
            Ok(())
        }
        Response::Error { message } => Err(format!("query: daemon error: {message}")),
        Response::Overloaded { retry_after_ms } => Err(format!(
            "query: daemon overloaded (admission queue is full); retry in ~{retry_after_ms}ms"
        )),
        Response::ShuttingDown => {
            println!("daemon is shutting down");
            Ok(())
        }
        // Unreachable: the roundtrip loop consumes progress frames.
        Response::Progress { .. } => Ok(()),
    }
}
