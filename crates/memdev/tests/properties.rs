//! Property-based tests of the device models: media accounting must be
//! conservative (every received byte is eventually written), bounded (no
//! more than one block per distinct block-touch), and exact for the
//! patterns with known closed forms.

use memdev::{Device, MediaBytes, MemDevice};
use proptest::prelude::*;
use std::collections::HashSet;

fn devices() -> Vec<Device> {
    vec![
        Device::dram(),
        Device::optane(256),
        Device::fpga_fast(),
        Device::fpga_slow(),
        Device::cxl_ssd(256),
        Device::cxl_ssd(512),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After a flush, the media has written at least every byte received
    /// and at most one internal block per (block, visit) pair, and the
    /// media traffic each write and the flush returned sums to the
    /// counters.
    #[test]
    fn media_accounting_bounds(
        writes in proptest::collection::vec((0u64..1 << 20, 1u64..512), 1..500),
    ) {
        for mut dev in devices() {
            let block = dev.internal_granularity();
            let mut visits = 0u64;
            let mut last_block_of_write: HashSet<u64> = HashSet::new();
            let mut received = 0u64;
            let mut returned = MediaBytes::default();
            let mut add = |m: MediaBytes| {
                returned.written += m.written;
                returned.rmw_read += m.rmw_read;
            };
            for &(addr, len) in &writes {
                add(dev.receive_write(addr, len));
                received += len;
                for b in simcore::blocks_touched(addr, len, block) {
                    visits += 1;
                    last_block_of_write.insert(b);
                }
            }
            add(dev.flush());
            let s = *dev.stats();
            prop_assert_eq!(
                returned,
                MediaBytes { written: s.media_bytes_written, rmw_read: s.media_bytes_rmw_read },
                "{}", dev.name()
            );
            prop_assert_eq!(s.bytes_received, received, "{}", dev.name());
            prop_assert!(
                s.media_bytes_written >= received.min(last_block_of_write.len() as u64 * block),
                "{}: wrote {} for {} received",
                dev.name(), s.media_bytes_written, received
            );
            prop_assert!(
                s.media_bytes_written <= visits * block,
                "{}: wrote {} > {} block visits x {}",
                dev.name(), s.media_bytes_written, visits, block
            );
        }
    }

    /// Flush is idempotent: a second flush adds nothing.
    #[test]
    fn flush_is_idempotent(writes in proptest::collection::vec(0u64..1 << 16, 1..200)) {
        let mut dev = Device::optane(256);
        for &a in &writes {
            dev.receive_write(a * 64, 64);
        }
        dev.flush();
        let after_first = dev.stats().media_bytes_written;
        prop_assert_eq!(dev.flush(), MediaBytes::default());
        prop_assert_eq!(dev.stats().media_bytes_written, after_first);
    }

    /// Reads never produce media writes on any device.
    #[test]
    fn reads_do_not_write(reads in proptest::collection::vec(0u64..1 << 20, 1..200)) {
        for mut dev in devices() {
            for &a in &reads {
                dev.receive_read(a, 64);
            }
            dev.flush();
            prop_assert_eq!(dev.stats().media_bytes_written, 0, "{}", dev.name());
            prop_assert_eq!(dev.stats().bytes_read, reads.len() as u64 * 64);
            prop_assert_eq!(dev.stats().reads_received, reads.len() as u64);
        }
    }

    /// DRAM and FPGA (line-granular devices) never amplify, byte for byte.
    #[test]
    fn line_granular_devices_never_amplify(
        writes in proptest::collection::vec((0u64..1 << 20, 1u64..512), 1..300),
    ) {
        for mut dev in [Device::dram(), Device::fpga_fast()] {
            for &(addr, len) in &writes {
                dev.receive_write(addr, len);
            }
            dev.flush();
            let s = dev.stats();
            prop_assert_eq!(s.media_bytes_written, s.bytes_received, "{}", dev.name());
        }
    }
}
