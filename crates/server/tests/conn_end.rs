//! Every way a connection ends reaches both of its sides. A connection the
//! server ends — a bad v3 preamble, an oversized binary frame — reaches
//! its client as EOF; one its client closes leaves no descriptor in the
//! server; and dropping the server ends one blocked in a read.
//!
//! Each test holds one lock for its whole run, so the descriptor count
//! sees no other test's sockets.

use piql_engine::Database;
use piql_server::binary::{self, MAGIC, MAX_FRAME};
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{BinaryWire, LiveCluster, LiveConfig, PiqlServer, Wire};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A server over an empty store: every case here is about the socket.
fn start() -> PiqlServer {
    let db = Database::new(Arc::new(LiveCluster::new(LiveConfig::default())));
    let slo = permissive_slo();
    PiqlServer::start(
        Arc::new(db),
        linear_predictor(200, 100, 2),
        slo,
        "127.0.0.1:0",
    )
    .unwrap()
}

fn connect(server: &PiqlServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    // a connection the server fails to end shows as a timeout, not a hang
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    stream
}

/// What the client reads next: `Ok(0)` is the end of the stream.
fn read_next(reader: &mut impl Read) -> io::Result<usize> {
    reader.read(&mut [0u8; 64])
}

/// One `stats` request on a JSON connection, its whole answer read.
fn one_request(reader: &mut BufReader<&TcpStream>) {
    let mut stream = *reader.get_ref();
    stream.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("{\"") && line.ends_with('\n'), "{line:?}");
}

#[test]
fn a_bad_preamble_reaches_the_client_as_eof() {
    let _serial = serial();
    let server = start();
    let mut stream = connect(&server);
    let mut preamble = MAGIC;
    preamble[3] = 0x02;
    stream.write_all(&preamble).unwrap();
    let end = read_next(&mut stream);
    assert!(matches!(end, Ok(0)), "{end:?}");
}

#[test]
fn an_oversized_frame_reaches_the_client_as_eof_after_the_hello() {
    let _serial = serial();
    let server = start();
    let stream = connect(&server);
    let mut reader = BufReader::new(&stream);
    (&stream).write_all(&MAGIC).unwrap();
    let mut hello = Vec::new();
    assert!(BinaryWire.read_frame(&mut reader, &mut hello).unwrap());
    assert_eq!(binary::parse_hello(&hello).unwrap(), binary::VERSION);
    let oversized = MAX_FRAME as u32 + 1;
    (&stream).write_all(&oversized.to_le_bytes()).unwrap();
    let end = read_next(&mut reader);
    assert!(matches!(end, Ok(0)), "{end:?}");
}

/// The connections the server has open are the descriptors it has open:
/// each one its client closes must give its descriptor back.
#[cfg(target_os = "linux")]
#[test]
fn a_connection_its_client_closes_keeps_no_descriptor() {
    let _serial = serial();
    let server = start();
    let open = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let before = open();
    for _ in 0..50 {
        let stream = connect(&server);
        one_request(&mut BufReader::new(&stream));
    }
    // each handler sees its client's close on its own thread; a connection
    // an earlier test ended may close meanwhile, so the count may fall
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while open() > before && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let left = open().saturating_sub(before);
    assert_eq!(left, 0, "50 closed connections left {left} descriptors");
}

#[test]
fn dropping_the_server_ends_a_connection_blocked_in_a_read() {
    let _serial = serial();
    let server = start();
    let stream = connect(&server);
    // answered: its handler runs, and waits in a read for the next line
    let mut reader = BufReader::new(&stream);
    one_request(&mut reader);
    drop(server);
    let end = read_next(&mut reader);
    assert!(matches!(end, Ok(0)), "{end:?}");
}
