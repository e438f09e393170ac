package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"time"
)

// answer is an order-independent digest of a result: its tuple count
// and the wrapping sum of per-tuple hashes.
type answer struct {
	n   int64
	sum uint64
}

func (a *answer) add(t []uint64) {
	a.n++
	a.sum += tupleHash(t)
}

func (a answer) String() string { return fmt.Sprintf("%d tuples, hash %016x", a.n, a.sum) }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func tupleHash(t []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range t {
		h = mix64(h ^ v)
	}
	return h
}

// seqStep folds one tuple into an order-dependent sequence hash.
func seqStep(seq uint64, t []uint64) uint64 { return mix64(seq ^ tupleHash(t)) }

// response is the part of tetrisd's final line for a request that the
// benchmark reads.
type response struct {
	OK          bool     `json:"ok"`
	Err         string   `json:"error"`
	Vars        []string `json:"vars"`
	SAO         []string `json:"sao"`
	Outputs     int64    `json:"outputs"`
	Resolutions int64    `json:"resolutions"`
}

// reply is what the client saw of one request: the streamed tuples'
// digests, the final response, and the three client-side marks.
type reply struct {
	resp       response
	got        answer
	seq        uint64
	tupleBytes int64
	// sent is when the request was written, first when the first byte of
	// the reply arrived (a tuple line or the response) and end when the
	// response line was complete.
	sent, first, end time.Time
}

// conn is one protocol session over TCP.
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	buf []uint64
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 1<<16)}, nil
}

func (c *conn) close() { c.c.Close() }

// send writes one request line; it does not wait for the reply.
func (c *conn) send(line []byte) (time.Time, error) {
	t := time.Now()
	_, err := c.c.Write(append(line[:len(line):len(line)], '\n'))
	return t, err
}

// recv reads one reply: any streamed tuple lines and the response.
func (c *conn) recv() (reply, error) {
	var r reply
	for {
		line, err := c.readLine()
		if err != nil {
			return r, err
		}
		if r.first.IsZero() {
			r.first = time.Now()
		}
		if bytes.HasPrefix(line, []byte(`{"tuple":[`)) {
			t, err := c.parseTuple(line)
			if err != nil {
				return r, err
			}
			r.got.add(t)
			r.seq = seqStep(r.seq, t)
			r.tupleBytes += int64(len(line))
			continue
		}
		r.end = time.Now()
		if err := json.Unmarshal(line, &r.resp); err != nil {
			return r, fmt.Errorf("bad response line %q: %w", line, err)
		}
		return r, nil
	}
}

// do sends a request and waits for its reply.
func (c *conn) do(line []byte) (reply, error) {
	sent, err := c.send(line)
	if err != nil {
		return reply{}, err
	}
	r, err := c.recv()
	r.sent = sent
	if err == nil && !r.resp.OK {
		err = fmt.Errorf("tetrisd refused %s: %s", truncate(line), r.resp.Err)
	}
	return r, err
}

func (c *conn) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = c.r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	return line, err
}

// parseTuple decodes a {"tuple":[v,…]} line into the connection's
// scratch slice. It is hand-rolled because the client shares the CPUs
// with the server it measures: it should cost as little as possible.
func (c *conn) parseTuple(line []byte) ([]uint64, error) {
	body := line[len(`{"tuple":[`):]
	c.buf = c.buf[:0]
	var v uint64
	digits := 0
	for _, ch := range body {
		d := uint64(ch - '0')
		switch {
		case ch >= '0' && ch <= '9' && (v < math.MaxUint64/10 || v == math.MaxUint64/10 && d <= math.MaxUint64%10):
			v = v*10 + d
			digits++
		case (ch == ',' || ch == ']') && digits > 0:
			c.buf = append(c.buf, v)
			v, digits = 0, 0
			if ch == ']' {
				return c.buf, nil
			}
		default:
			return nil, fmt.Errorf("bad tuple line %q", line)
		}
	}
	return nil, fmt.Errorf("bad tuple line %q", line)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func truncate(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "…"
	}
	return string(b)
}
