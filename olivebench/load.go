package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// sample is one open-loop request's schedule as offsets from the phase
// start: when it was due, when the lane was ready to send it (the later
// of the due time and the previous response), when it was sent, and when
// its response had been read.
type sample struct {
	Due, Ready, Send, Done time.Duration
}

// Latency is what a user arriving at the due time waits: a stall delays
// every later request of the lane, and that wait counts.
func (s sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how long after the lane was ready the generator sent the
// request: its own sleep overshoot, which must stay far below a round
// trip for the latencies to mean anything.
func (s sample) Late() time.Duration { return s.Send - s.Ready }

// runLane sends one lane's requests in order, none before its due time,
// each after the previous response (one connection carries one request
// at a time). now reads the phase clock, waitUntil sleeps until a phase
// time, and do performs request i; tests inject all three.
func runLane(dues []time.Duration, now func() time.Duration, waitUntil func(time.Duration), do func(i int) error) ([]sample, error) {
	out := make([]sample, 0, len(dues))
	var prevDone time.Duration
	for i, due := range dues {
		if now() < due {
			waitUntil(due)
		}
		send := now()
		if err := do(i); err != nil {
			return out, err
		}
		done := now()
		out = append(out, sample{Due: due, Ready: max(due, prevDone), Send: send, Done: done})
		prevDone = done
	}
	return out, nil
}

// conn is a minimal HTTP/1.1 keep-alive client over one TCP connection.
// The lane goroutine does its own reads and writes, so a round trip
// costs no hand-offs between client goroutines.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	buf bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c)}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// do sends one request and reads the whole response. It returns the
// status and body.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	c.buf.Reset()
	c.buf.WriteString(method + " " + path + " HTTP/1.1\r\nHost: bench\r\n")
	if body != nil {
		c.buf.WriteString("Content-Type: application/json\r\nContent-Length: ")
		c.buf.WriteString(strconv.Itoa(len(body)))
		c.buf.WriteString("\r\n")
	}
	c.buf.WriteString("\r\n")
	c.buf.Write(body)
	if _, err := c.c.Write(c.buf.Bytes()); err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read response: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}
