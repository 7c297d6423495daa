package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawClient is a minimal HTTP/1.1 client on one persistent connection: it
// writes prebuilt request bytes and reads the status line, the framing
// headers and a Content-Length body. net/http's client costs
// more per request than colord's whole hit path, so the color workloads use
// this one to measure the server rather than the client.
type rawClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte // the last response body; valid until the next call
}

type rawResponse struct {
	status int
	body   []byte // aliases the client's buffer
}

var (
	hdrContentLength = []byte("Content-Length")
	hdrConnection    = []byte("Connection")
	tokClose         = []byte("close")
)

func newRawClient(addr string) *rawClient { return &rawClient{addr: addr} }

func (c *rawClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one prebuilt request. A failure on a reused connection (the
// server closed it while idle) is retried once on a fresh dial; colord's
// color requests are idempotent.
func (c *rawClient) do(wire []byte) (rawResponse, error) {
	fresh := c.conn == nil
	if fresh {
		if err := c.dial(); err != nil {
			return rawResponse{}, err
		}
	}
	r, err := c.try(wire)
	if err != nil && !fresh {
		c.close()
		if err = c.dial(); err != nil {
			return rawResponse{}, err
		}
		r, err = c.try(wire)
	}
	if err != nil {
		c.close()
	}
	return r, err
}

func (c *rawClient) dial() error {
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 16<<10)
	} else {
		c.br.Reset(conn)
	}
	return nil
}

func (c *rawClient) try(wire []byte) (rawResponse, error) {
	if _, err := c.conn.Write(wire); err != nil {
		return rawResponse{}, err
	}
	line, err := c.line()
	if err != nil {
		return rawResponse{}, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return rawResponse{}, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return rawResponse{}, fmt.Errorf("malformed status line %q", line)
	}
	resp := rawResponse{status: status}
	length, closeAfter := -1, false
	for {
		line, err = c.line()
		if err != nil {
			return rawResponse{}, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, hdrContentLength):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return rawResponse{}, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, hdrConnection):
			closeAfter = bytes.EqualFold(val, tokClose)
		}
	}
	if length < 0 {
		return rawResponse{}, fmt.Errorf("response without Content-Length (status %d)", status)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return rawResponse{}, err
	}
	resp.body = c.body
	if closeAfter {
		c.close()
	}
	return resp, nil
}

// line returns the next CRLF-terminated line without its terminator.
func (c *rawClient) line() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}
