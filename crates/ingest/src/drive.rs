//! Tape-replay load generator: `temspc ingest drive` replays recorded
//! `.cap` tapes over real sockets against a running ingestion server.
//!
//! Each connection gets its own blocking-socket thread that sends the
//! handshake and then the tape's frames, optionally paced to a target
//! frame rate and optionally torn into small write chunks — the chunking
//! deliberately splits messages at arbitrary byte boundaries so a drive
//! run exercises the server's reassembly path the way a congested
//! network would.

use std::io::{self, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use temspc::persistence::{load_capture, FileError};
use temspc::ScenarioCapture;

use crate::stream::{encode_hello, encode_record};

/// Configuration of one drive run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveConfig {
    /// Server address to connect to.
    pub addr: String,
    /// Capture tapes to replay; connections cycle through them, so one
    /// tape can feed any number of connections.
    pub tapes: Vec<PathBuf>,
    /// Concurrent connections to open.
    pub connections: usize,
    /// Target frame rate per connection in frames/second (0 →
    /// unthrottled, send as fast as the server accepts).
    pub rate: f64,
    /// Bytes per socket write (0 → whole messages). Small values tear
    /// messages across writes to stress reassembly.
    pub chunk: usize,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            addr: "127.0.0.1:0".into(),
            tapes: Vec::new(),
            connections: 1,
            rate: 0.0,
            chunk: 0,
        }
    }
}

/// Aggregate result of a drive run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveReport {
    /// Connections that completed their tape.
    pub connections: usize,
    /// Total frames sent.
    pub frames: u64,
    /// Total bytes written (handshakes included).
    pub bytes: u64,
    /// Wall-clock seconds from first connect to last close.
    pub elapsed_secs: f64,
}

/// Errors raised by a drive run.
#[derive(Debug)]
pub enum DriveError {
    /// No tapes were given — nothing to replay.
    NoTapes,
    /// Loading a tape failed.
    Tape(PathBuf, FileError),
    /// A connection's socket I/O failed.
    Io(io::Error),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::NoTapes => write!(f, "no capture tapes to replay"),
            DriveError::Tape(path, e) => write!(f, "loading tape {}: {e}", path.display()),
            DriveError::Io(e) => write!(f, "socket I/O failed: {e}"),
        }
    }
}

impl std::error::Error for DriveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriveError::NoTapes => None,
            DriveError::Tape(_, e) => Some(e),
            DriveError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for DriveError {
    fn from(e: io::Error) -> Self {
        DriveError::Io(e)
    }
}

/// Replays the configured tapes against the server, one thread per
/// connection, and returns the aggregate throughput report.
///
/// Connection `i` replays tape `i % tapes.len()` and identifies itself
/// as plant `i`, so every served [`PlantRecord`] maps back to the tape
/// that produced it.
///
/// [`PlantRecord`]: temspc_fleet::PlantRecord
///
/// # Errors
///
/// Fails if no tapes are given, a tape fails to load, or any
/// connection's socket I/O fails.
pub fn drive(config: &DriveConfig) -> Result<DriveReport, DriveError> {
    if config.tapes.is_empty() {
        return Err(DriveError::NoTapes);
    }
    let mut captures: Vec<ScenarioCapture> = Vec::with_capacity(config.tapes.len());
    for path in &config.tapes {
        captures.push(load_capture(path).map_err(|e| DriveError::Tape(path.clone(), e))?);
    }
    let connections = config.connections.max(1);
    let started = Instant::now();
    let results: Vec<io::Result<(u64, u64)>> = std::thread::scope(|scope| {
        // Spawn every connection thread before joining any so the
        // replays actually run concurrently.
        let mut handles = Vec::with_capacity(connections);
        for i in 0..connections {
            let capture = &captures[i % captures.len()];
            let addr = config.addr.as_str();
            let (rate, chunk) = (config.rate, config.chunk);
            handles
                .push(scope.spawn(move || drive_connection(addr, i as u32, capture, rate, chunk)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("drive connection thread panicked"))
            .collect()
    });
    let mut frames = 0u64;
    let mut bytes = 0u64;
    for result in results {
        let (f, b) = result?;
        frames += f;
        bytes += b;
    }
    Ok(DriveReport {
        connections,
        frames,
        bytes,
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

fn drive_connection(
    addr: &str,
    plant: u32,
    capture: &ScenarioCapture,
    rate: f64,
    chunk: usize,
) -> io::Result<(u64, u64)> {
    let mut stream = TcpStream::connect(addr)?;
    // Small paced writes should go out when written, not when Nagle says.
    let _ = stream.set_nodelay(true);
    let hello = encode_hello(plant, &capture.scenario);
    write_chunked(&mut stream, &hello, chunk)?;
    let mut bytes = hello.len() as u64;
    let mut frames = 0u64;
    let paced_from = Instant::now();
    let mut message = Vec::with_capacity(512);
    for record in &capture.records {
        if rate > 0.0 {
            let due = Duration::from_secs_f64(frames as f64 / rate);
            let elapsed = paced_from.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        message.clear();
        encode_record(record, &mut message);
        write_chunked(&mut stream, &message, chunk)?;
        bytes += message.len() as u64;
        frames += 1;
    }
    // Dropping the stream sends FIN; the server scores the tail and
    // finalizes the connection.
    Ok((frames, bytes))
}

fn write_chunked(stream: &mut TcpStream, bytes: &[u8], chunk: usize) -> io::Result<()> {
    if chunk == 0 {
        return stream.write_all(bytes);
    }
    for piece in bytes.chunks(chunk) {
        stream.write_all(piece)?;
        stream.flush()?;
    }
    Ok(())
}
