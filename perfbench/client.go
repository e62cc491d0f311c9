package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// client issues the generator's requests to one target over at most conns
// connections.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	return &client{hc: &http.Client{Transport: newTransport(conns)}, base: base, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and reads the whole response into buf. It
// returns the body, the response headers and the time the last byte
// arrived. A transport error or a non-2xx status is an error. In a traced
// run it records the loadgen.request span (from due to the last byte) and
// its http.roundtrip child (from send to the last byte), and sends the
// headers that let the server-side middleware attach to them.
func (c *client) post(buf *bytes.Buffer, path string, body []byte, seq uint64, req int64, due time.Time, op string) ([]byte, http.Header, time.Time, error) {
	hreq, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, time.Now(), err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if seq > 0 {
		hreq.Header.Set("X-SSD-Seq", strconv.FormatUint(seq, 10))
	}
	var lgID, rtID int64
	if c.tr != nil {
		lgID, rtID = c.tr.newID(), c.tr.newID()
		hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hreq.Header.Set(hdrSpan, strconv.FormatInt(rtID, 10))
	}
	sent := time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, nil, time.Now(), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if c.tr != nil {
		c.tr.record(span{ID: lgID, Req: req, Name: "loadgen.request", Op: op, Start: c.tr.at(due), End: c.tr.at(end)})
		c.tr.record(span{ID: rtID, Parent: lgID, Req: req, Name: "http.roundtrip", Op: path, Start: c.tr.at(sent), End: c.tr.at(end)})
	}
	if err != nil {
		return nil, nil, end, fmt.Errorf("%s: reading response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		msg := buf.Bytes()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, nil, end, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return buf.Bytes(), resp.Header, end, nil
}
