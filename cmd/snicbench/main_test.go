package main

import (
	"io"
	"os"
	"path/filepath"
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

// A failed export exits 1 only after the CPU profile was stopped and
// closed, so the profile of the failed run is still complete.
func TestFailedExportKeepsCPUProfile(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full does not exist here")
	}
	prof := filepath.Join(t.TempDir(), "c.prof")
	code := run([]string{"-exp", "specs", "-q", "-j", "1", "-cpuprofile", prof, "-manifest", "/dev/full"})
	if code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	info, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("CPU profile is empty: the failed export skipped stopping it")
	}
}

// An unknown -func exits 2 only after the CPU profile was stopped and
// closed, like a failed export.
func TestUnknownFunctionKeepsCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "c.prof")
	code := run([]string{"-exp", "fig4", "-func", "bogus", "-q", "-cpuprofile", prof})
	if code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	info, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("CPU profile is empty: the unknown function skipped stopping it")
	}
}
