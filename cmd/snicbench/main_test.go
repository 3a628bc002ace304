package main

import (
	"io"
	"os"
	"testing"
)

// An export that fits in writeOut's buffer reaches the file only at the
// flush, so a full device must fail there and writeOut must say so.
func TestWriteOutReportsFlushError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full does not exist here")
	}
	err := writeOut("/dev/full", func(w io.Writer) error {
		_, err := io.WriteString(w, "{}\n")
		return err
	})
	if err == nil {
		t.Fatal("writeOut to /dev/full returned no error")
	}
	if err := writeOut("", nil); err != nil {
		t.Fatalf("writeOut with no path = %v, want nil", err)
	}
}
