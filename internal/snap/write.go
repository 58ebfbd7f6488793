package snap

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Write serializes img to path crash-safely: the bytes go to a temporary
// file in the same directory, are fsynced, and only then renamed over path;
// the directory is fsynced last so the rename itself is durable. A reader
// therefore either sees the complete new snapshot or whatever was at path
// before — never a torn file under the final name. (A torn temp file left
// by a crash is overwritten by the next Write and never referenced by a
// manifest.)
func Write(path string, img *Image) error {
	if err := img.Validate(); err != nil {
		return err
	}
	return writeImage(path, img)
}

// writeImage lays out and durably writes an already validated image.
func writeImage(path string, img *Image) error {
	secs := img.sections()
	if len(secs) > maxSections {
		return fmt.Errorf("snap: %d sections exceed the format limit %d", len(secs), maxSections)
	}

	// Lay out the file: header, table, then Align-padded payloads.
	tableOff := uint64(headerSize)
	off := alignUp(tableOff + uint64(sectionSize*len(secs)))
	table := make([]section, len(secs))
	for i, sd := range secs {
		table[i] = section{
			kind:   sd.kind,
			dir:    sd.dir,
			part:   sd.part,
			elem:   sd.elem,
			off:    off,
			length: uint64(len(sd.data)),
			crc:    crc32.Checksum(sd.data, crcTable),
		}
		off += alignUp(uint64(len(sd.data)))
	}

	tableBytes := make([]byte, 0, sectionSize*len(secs))
	for _, s := range table {
		tableBytes = append(tableBytes, encodeSection(s)...)
	}
	hdr := encodeHeader(header{
		version:    FormatVersion,
		nsections:  uint32(len(secs)),
		epoch:      img.Epoch,
		tag:        img.Tag,
		nrows:      img.NRows,
		ncols:      img.NCols,
		nedges:     img.NEdges,
		directions: img.Directions,
		partitions: img.Partitions,
	}, crc32.Checksum(tableBytes, crcTable))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	written := uint64(0)
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += uint64(n)
		return err
	}
	pad := func(to uint64) error {
		var zeros [Align]byte
		for written < to {
			chunk := to - written
			if chunk > Align {
				chunk = Align
			}
			if err := emit(zeros[:chunk]); err != nil {
				return err
			}
		}
		return nil
	}
	writeAll := func() error {
		if err := emit(hdr); err != nil {
			return err
		}
		if err := emit(tableBytes); err != nil {
			return err
		}
		for i, sd := range secs {
			if err := pad(table[i].off); err != nil {
				return err
			}
			if err := emit(sd.data); err != nil {
				return err
			}
		}
		if err := pad(off); err != nil {
			return err
		}
		return w.Flush()
	}
	if err := writeAll(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snap: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snap: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snap: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snap: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-completed rename or create within it
// survives power loss. Filesystems that reject directory fsync (it is
// optional in POSIX) are tolerated: the rename is still atomic, just not
// yet durable, which degrades crash-safety to ordinary-crash-safety rather
// than corrupting anything.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	defer d.Close()
	d.Sync()
	return nil
}
