//! Request lines are bounded: a client that sends a 2 MiB line (twice
//! the daemon's 1 MiB cap) gets one protocol `error` line and a closed
//! connection, and the daemon keeps serving new connections.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::thread;
use std::time::Duration;

use xbc_serve::{ping, shutdown, Endpoint, ServeConfig};

#[test]
fn over_long_request_line_is_refused_and_daemon_stays_up() {
    let dir = std::env::temp_dir().join(format!("xbc-serve-limit-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    let endpoint = Endpoint::unix(&socket);

    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1;
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    for _ in 0..500 {
        if ping(&endpoint).is_ok() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }

    let mut raw = UnixStream::connect(&socket).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // hello
    assert!(line.contains("\"hello\""), "expected hello, got {line:?}");

    let mut huge = vec![b'x'; 2 << 20];
    huge.push(b'\n');
    // The daemon stops reading at the cap and closes, so the tail of
    // this write may fail with a broken pipe; that is the point.
    let _ = raw.write_all(&huge);

    line.clear();
    reader.read_line(&mut line).expect("daemon must answer, not hang");
    assert!(
        line.contains("\"error\"") && line.contains("exceeds 1048576 bytes"),
        "expected a request-too-long error line, got {line:?}"
    );
    line.clear();
    let rest = reader.read_line(&mut line);
    assert!(
        matches!(rest, Ok(0) | Err(_)),
        "the connection must be closed after the refusal, got {rest:?} {line:?}"
    );

    ping(&endpoint).expect("daemon must still answer ping on a new connection");
    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
