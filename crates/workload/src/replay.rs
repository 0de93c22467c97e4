//! Event-feed serialization for replayable experiments.
//!
//! The paper's evaluation replays fixed datasets. Synthetic feeds here are
//! already reproducible from a seed, but sharing a captured feed (or a
//! trace exported from a production system) needs a storage format. This
//! module defines a compact little-endian binary framing:
//!
//! ```text
//! header:  magic "OIJ1" | u64 event count
//! event:   u64 seq | u8 side (0=base, 1=probe, 2=flush)
//!          [data only:] i64 ts | u64 key | f64 value | u32 len | len bytes
//! ```
//!
//! Tuples carry no payload, so [`write_events`] writes `len = 0`. Feeds
//! written before the payload was dropped hold `len` opaque bytes there;
//! [`read_events`] skips them without buffering.

use std::io::{self, Read, Write};

use oij_common::{Event, EventKind, Side, Timestamp, Tuple};

const MAGIC: &[u8; 4] = b"OIJ1";

/// Writes an event feed to `w`.
pub fn write_events(mut w: impl Write, events: &[Event]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(events.len() as u64).to_le_bytes())?;
    for e in events {
        w.write_all(&e.seq.to_le_bytes())?;
        match &e.kind {
            EventKind::Flush => w.write_all(&[2u8])?,
            EventKind::Data { side, tuple } => {
                w.write_all(&[match side {
                    Side::Base => 0u8,
                    Side::Probe => 1u8,
                }])?;
                w.write_all(&tuple.ts.as_micros().to_le_bytes())?;
                w.write_all(&tuple.key.to_le_bytes())?;
                w.write_all(&tuple.value.to_le_bytes())?;
                w.write_all(&0u32.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// Reads an event feed written by [`write_events`].
pub fn read_events(mut r: impl Read) -> io::Result<Vec<Event>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad magic {magic:?}; not an OIJ event feed"),
        ));
    }
    let count = read_u64(&mut r)?;
    // Guard against absurd headers before allocating.
    if count > (1 << 40) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible event count {count}"),
        ));
    }
    let mut events = Vec::with_capacity(count.min(1 << 24) as usize);
    for _ in 0..count {
        let seq = read_u64(&mut r)?;
        let mut side = [0u8; 1];
        r.read_exact(&mut side)?;
        let event = match side[0] {
            2 => Event::flush(seq),
            tag @ (0 | 1) => {
                let ts = Timestamp::from_micros(read_u64(&mut r)? as i64);
                let key = read_u64(&mut r)?;
                let value = f64::from_le_bytes(read_array(&mut r)?);
                let len = u64::from(u32::from_le_bytes(read_array(&mut r)?));
                if len > (1 << 30) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("implausible payload length {len}"),
                    ));
                }
                if io::copy(&mut (&mut r).take(len), &mut io::sink())? < len {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                let side = if tag == 0 { Side::Base } else { Side::Probe };
                Event::data(seq, side, Tuple::new(ts, key, value))
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown event tag {other}"),
                ))
            }
        };
        events.push(event);
    }
    Ok(events)
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    Ok(u64::from_le_bytes(read_array(r)?))
}

fn read_array<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use oij_common::Duration;

    #[test]
    fn roundtrip_preserves_every_event() {
        let mut events = SyntheticConfig {
            tuples: 5_000,
            disorder: Duration::from_micros(100),
            ..Default::default()
        }
        .generate();
        events.push(Event::flush(events.len() as u64));

        let mut buf = Vec::new();
        write_events(&mut buf, &events).unwrap();
        let loaded = read_events(buf.as_slice()).unwrap();
        assert_eq!(loaded, events);
    }

    /// A feed whose two data events carry 5- and 40-byte payloads, as
    /// files written before tuples dropped their payload do.
    fn recorded_feed() -> (Vec<u8>, Vec<Event>) {
        let t = |ts, value| Tuple::new(Timestamp::from_micros(ts), 9, value);
        let events = vec![
            Event::data(0, Side::Probe, t(3, 1.5)),
            Event::data(1, Side::Base, t(4, -2.0)),
        ];
        let mut buf = b"OIJ1".to_vec();
        buf.extend_from_slice(&2u64.to_le_bytes());
        for (e, len) in events.iter().zip([5u32, 40]) {
            let (side, t) = e.as_data().unwrap();
            buf.extend_from_slice(&e.seq.to_le_bytes());
            buf.push(if side == Side::Base { 0 } else { 1 });
            buf.extend_from_slice(&t.ts.as_micros().to_le_bytes());
            buf.extend_from_slice(&t.key.to_le_bytes());
            buf.extend_from_slice(&t.value.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
            buf.resize(buf.len() + len as usize, 0xAB);
        }
        (buf, events)
    }

    #[test]
    fn a_recorded_payload_is_skipped() {
        let (buf, events) = recorded_feed();
        assert_eq!(read_events(buf.as_slice()).unwrap(), events);
    }

    #[test]
    fn a_feed_cut_inside_a_payload_is_an_error() {
        let (mut buf, _) = recorded_feed();
        buf.truncate(buf.len() - 10);
        let err = read_events(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn empty_feed_roundtrips() {
        let mut buf = Vec::new();
        write_events(&mut buf, &[]).unwrap();
        assert_eq!(read_events(buf.as_slice()).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_events(&b"NOPE\x00\x00\x00\x00\x00\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let events = SyntheticConfig {
            tuples: 10,
            ..Default::default()
        }
        .generate();
        let mut buf = Vec::new();
        write_events(&mut buf, &events).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_events(buf.as_slice()).is_err());
    }

    #[test]
    fn implausible_header_is_rejected_without_oom() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"OIJ1");
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_events(buf.as_slice()).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"OIJ1");
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // seq
        buf.push(7); // bogus tag
        let err = read_events(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("tag"));
    }
}
