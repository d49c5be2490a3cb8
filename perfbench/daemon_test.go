package main

import (
	"strings"
	"testing"
)

func TestReadEndFrame(t *testing.T) {
	feed := ": heartbeat\n\n" +
		"id: 1\nevent: window\ndata: {\"job_id\":\"job-000001\"}\n\n" +
		"id: 2\nevent: end\ndata: {\"status\":{\"state\":\"done\"}}\n\n"
	got, err := readEndFrame(strings.NewReader(feed))
	if err != nil || string(got) != `{"status":{"state":"done"}}` {
		t.Fatalf("readEndFrame = %q, %v", got, err)
	}
	// A data line only counts under its own event's header.
	if _, err := readEndFrame(strings.NewReader("event: end\n\ndata: {}\n\n")); err == nil {
		t.Error("a data line after the end event's blank line was taken as its data")
	}
	if _, err := readEndFrame(strings.NewReader("event: window\ndata: {}\n\n")); err == nil {
		t.Error("a feed without an end frame was accepted")
	}
}
