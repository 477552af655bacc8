//! Transport loops: stdin/stdout and TCP, hand-rolled on `std` (the
//! workspace vendors every dependency, so there is no async runtime —
//! and none is needed: the engine batches and fans out internally).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::engine::QueryEngine;

/// Longest request line [`serve_stream`] buffers, newline excluded. A
/// `joined` delta at v=1000 is about 6 KB, so this is far above any real
/// request.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Drive `engine` over one line-delimited stream: read up to `batch`
/// request lines, answer them in order, flush, repeat until EOF.
///
/// `batch > 1` is for pipelined clients (the response to a line may be
/// withheld until `batch - 1` more lines or EOF arrive); interactive
/// clients should run with `batch = 1` (the default), which answers and
/// flushes after every line. Batching never changes the response bytes —
/// only their flush timing.
///
/// A line longer than [`MAX_LINE_BYTES`] is skipped to its newline without
/// being buffered, and a line that is not UTF-8 is dropped; each is
/// answered in turn with one `{"id":0,"ok":false,…}` and the stream goes on.
pub fn serve_stream<R: BufRead, W: Write>(
    engine: &QueryEngine,
    batch: usize,
    mut input: R,
    mut output: W,
) -> io::Result<()> {
    let batch = batch.max(1);
    // Grown on demand: `batch` only decides when to flush, so a huge value
    // costs nothing up front.
    let mut pending: Vec<String> = Vec::new();
    let mut out = String::new();
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        let eof = (&mut input).take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut bytes)? == 0;
        let rejected = if bytes.len() > MAX_LINE_BYTES && bytes.last() != Some(&b'\n') {
            skip_line(&mut input)?;
            Some(format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match String::from_utf8(std::mem::take(&mut bytes)) {
                Ok(line) => {
                    if !line.trim().is_empty() {
                        pending.push(line);
                    }
                    None
                }
                Err(_) => Some("request line is not valid UTF-8".to_string()),
            }
        };
        if pending.len() >= batch || rejected.is_some() || (eof && !pending.is_empty()) {
            out.clear();
            engine.process_batch(pending.iter().map(String::as_str), &mut out);
            if let Some(msg) = &rejected {
                engine.reject(msg, &mut out);
            }
            output.write_all(out.as_bytes())?;
            output.flush()?;
            pending.clear();
        }
        if eof {
            return Ok(());
        }
    }
}

/// Discard `input` up to and including the next newline (or EOF) without
/// buffering it.
fn skip_line<R: BufRead>(input: &mut R) -> io::Result<()> {
    loop {
        let buf = input.fill_buf()?;
        let (used, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), buf.is_empty()),
        };
        input.consume(used);
        if done {
            return Ok(());
        }
    }
}

/// Accept TCP connections on `addr` and serve each with [`serve_stream`],
/// one at a time (connections queue in the listener backlog; the scenario
/// store persists across connections, so a delta applied by one client is
/// visible to the next). A client I/O error drops that connection only.
pub fn serve_tcp(engine: &QueryEngine, addr: &str, batch: usize) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("served: listening on {}", listener.local_addr()?);
    for conn in listener.incoming() {
        let stream = conn?;
        if let Err(e) = serve_connection(engine, batch, &stream) {
            let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_default();
            eprintln!("served: connection {peer} dropped: {e}");
        }
    }
    Ok(())
}

/// Serve one accepted connection with Nagle's algorithm off: a response
/// written while an earlier one is still unacknowledged goes out at once
/// instead of waiting for the client's delayed ACK.
fn serve_connection(engine: &QueryEngine, batch: usize, stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_stream(engine, batch, reader, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioParams;

    #[test]
    fn stream_loop_answers_every_line_and_respects_batching() {
        let engine = QueryEngine::new(
            ScenarioParams { jobs: 40, resources: 4, seed: 3, finished: 0.5 }.build(),
            1,
        );
        let input = concat!(
            r#"{"id":1,"op":"info"}"#,
            "\n\n",
            r#"{"id":2,"op":"replan"}"#,
            "\n",
            r#"{"id":3,"op":"info"}"#,
            "\n",
        );
        let mut one = Vec::new();
        serve_stream(&engine, 1, input.as_bytes(), &mut one).unwrap();
        // `usize::MAX` never fills: every answer comes at EOF.
        for batch in [64, usize::MAX] {
            let mut big = Vec::new();
            serve_stream(&engine, batch, input.as_bytes(), &mut big).unwrap();
            assert_eq!(one, big, "batch size {batch} changed response bytes");
        }
        let text = String::from_utf8(one).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with("{\"id\":")));
    }

    #[test]
    fn overlong_and_non_utf8_lines_get_one_error_each_and_the_stream_goes_on() {
        let engine = || {
            QueryEngine::new(
                ScenarioParams { jobs: 40, resources: 4, seed: 3, finished: 0.5 }.build(),
                1,
            )
        };
        let valid = "{\"id\":2,\"op\":\"replan\"}\n";
        let mut input = b"{\"id\":1,\"op\":\"info\"}\n".to_vec();
        input.extend(std::iter::repeat_n(b'[', MAX_LINE_BYTES + 1));
        input.extend(b"\n\xff\xfe\n");
        input.extend(valid.as_bytes());
        for batch in [1, 64] {
            let mut out = Vec::new();
            serve_stream(&engine(), batch, input.as_slice(), &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 4, "batch {batch}: {text}");
            assert!(lines[0].starts_with("{\"id\":1,\"ok\":true"));
            assert!(lines[1].starts_with("{\"id\":0,\"ok\":false") && lines[1].contains("longer"));
            assert!(lines[2].starts_with("{\"id\":0,\"ok\":false") && lines[2].contains("UTF-8"));
            let mut clean = Vec::new();
            serve_stream(&engine(), 1, valid.as_bytes(), &mut clean).unwrap();
            assert_eq!(format!("{}\n", lines[3]).as_bytes(), clean.as_slice());
        }
    }

    #[test]
    fn tcp_connections_are_served_with_nodelay() {
        use std::net::Shutdown;
        let engine = QueryEngine::new(
            ScenarioParams { jobs: 40, resources: 4, seed: 3, finished: 0.5 }.build(),
            1,
        );
        let input = "{\"id\":1,\"op\":\"info\"}\n{\"id\":2,\"op\":\"replan\"}\n";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        client.write_all(input.as_bytes()).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        serve_connection(&engine, 1, &conn).unwrap();
        assert!(conn.nodelay().unwrap(), "Nagle's algorithm is still on");
        drop(conn);
        let mut answers = Vec::new();
        client.read_to_end(&mut answers).unwrap();
        let mut want = Vec::new();
        serve_stream(&engine, 1, input.as_bytes(), &mut want).unwrap();
        assert_eq!(answers, want);
    }
}
