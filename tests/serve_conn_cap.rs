//! The daemon caps its connection threads: past `MAX_CONNECTIONS` open
//! connections a new one is answered `busy` at accept and closed, the
//! process's thread count stays bounded, `ping` still answers on the open
//! connections, and once they close their threads are reaped and new
//! connections are served again. A test binary of its own, so no other
//! test's threads share the count.

use slc::serve::{
    Client, Endpoint, ErrorKind, Request, Response, ServeConfig, Server, MAX_CONNECTIONS,
};
use slc::trace::Tracer;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

#[test]
fn connections_past_the_cap_are_refused_and_threads_reaped() {
    let handle = Server::spawn(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        ServeConfig::default(),
        Tracer::disabled(),
    )
    .expect("spawn daemon");
    let addr = handle.local_addr().expect("tcp addr").to_string();
    let baseline = threads();

    // fill the cap with idle connections, each confirmed served by a ping
    let mut open: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut c = Client::connect_tcp(&addr).expect("connect");
            assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);
            c
        })
        .collect();

    // eight more: each is answered `busy` and closed
    for _ in 0..8 {
        let stream = TcpStream::connect(&addr).expect("connect");
        // a daemon without the cap would wait for a request: fail, not hang
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::parse(line.trim_end()).unwrap() {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Busy);
                assert!(message.contains("connection limit"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "expected EOF");
    }
    if baseline > 0 {
        let now = threads();
        assert!(
            now <= baseline + MAX_CONNECTIONS,
            "{now} threads with {MAX_CONNECTIONS} connections open (baseline {baseline})"
        );
    }
    assert_eq!(open[0].request(&Request::Ping).unwrap(), Response::Pong);
    match open[1].request(&Request::Stats).unwrap() {
        Response::Stats { counters } => assert_eq!(counters.get("serve.rejections"), 8),
        other => panic!("unexpected {other:?}"),
    }

    // close the idle connections: their threads exit and are reaped, so
    // the cap frees up and a new connection is served
    open.clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        let mut c = Client::connect_tcp(&addr).expect("connect");
        match c.request(&Request::Ping) {
            Ok(Response::Pong) => break c,
            Ok(Response::Error {
                kind: ErrorKind::Busy,
                ..
            })
            | Err(_) => {}
            Ok(other) => panic!("unexpected {other:?}"),
        }
        assert!(Instant::now() < deadline, "connection threads never reaped");
        std::thread::sleep(Duration::from_millis(20));
    };
    while baseline > 0 && threads() > baseline + 1 {
        assert!(Instant::now() < deadline, "{} threads linger", threads());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        client.request(&Request::Shutdown).unwrap(),
        Response::ShutdownAck
    );
    let drain = handle.wait();
    assert!(drain.drained_clean, "drain left work behind: {drain:?}");
}
