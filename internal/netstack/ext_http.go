package netstack

import (
	"bytes"
	"slices"
	"strconv"
)

// HTTPContent supplies document bodies to the in-kernel HTTP server. The
// web server experiment (paper §5.4) wires this to the file system with a
// hybrid cache; tests can use a map.
type HTTPContent interface {
	// Get returns the body for path, or ok=false for 404.
	Get(path string) (body []byte, ok bool)
}

// ContentMap is a trivial in-memory HTTPContent.
type ContentMap map[string][]byte

// Get implements HTTPContent.
func (m ContentMap) Get(path string) ([]byte, bool) {
	b, ok := m[path]
	return b, ok
}

// HTTPServer is the HTTP extension: the HyperText Transport Protocol
// implemented directly within the kernel, "splicing together the protocol
// stack and the local file system" so a server can respond quickly.
type HTTPServer struct {
	stack   *Stack
	content HTTPContent
	// Requests counts GETs served.
	Requests int64
	// NotFound counts 404s.
	NotFound int64
}

// NewHTTPServer starts the extension listening on port (normally 80).
func NewHTTPServer(stack *Stack, port uint16, cost DeliveryCost, content HTTPContent) (*HTTPServer, error) {
	return NewHTTPServerOwned("", stack, port, cost, content)
}

// NewHTTPServerOwned is NewHTTPServer with a recorded owning principal, so
// the listener is withdrawn when the owner's domain is destroyed
// (DestroyDomain's "net.tcp" reclaimer) — the crash-only kill switch the
// failover experiments flip on a backend.
func NewHTTPServerOwned(owner string, stack *Stack, port uint16, cost DeliveryCost, content HTTPContent) (*HTTPServer, error) {
	h := &HTTPServer{stack: stack, content: content}
	err := stack.TCP().ListenOwned(owner, port, cost, func(c *Conn) {
		var reqBuf []byte
		c.OnData = func(c *Conn, data []byte) {
			if reqBuf == nil && bytes.Contains(data, headerEnd) {
				h.serve(c, data) // the whole request in one segment
				return
			}
			reqBuf = append(reqBuf, data...)
			if !bytes.Contains(reqBuf, headerEnd) {
				return // request incomplete
			}
			h.serve(c, reqBuf)
			reqBuf = nil
		}
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// crlf ends an HTTP line, headerEnd a header block.
var (
	crlf      = []byte("\r\n")
	headerEnd = []byte("\r\n\r\n")
)

// serve parses one request and sends the response on the connection; req
// is only read during the call. When tracing is enabled the whole serve —
// parse, content lookup, response send — is one sample in the
// "net.http.serve" latency series.
func (h *HTTPServer) serve(c *Conn, req []byte) {
	if tr := h.stack.disp.Tracer(); tr != nil {
		start := h.stack.clock.Now()
		defer func() {
			tr.Observe("net.http.serve", h.stack.clock.Now().Sub(start))
		}()
	}
	h.serve1(c, req)
}

func (h *HTTPServer) serve1(c *Conn, req []byte) {
	line, _, _ := bytes.Cut(req, crlf)
	fields := bytes.Fields(line)
	if len(fields) < 2 || string(fields[0]) != "GET" {
		_ = c.Send([]byte("HTTP/1.0 400 Bad Request\r\n\r\n"))
		c.Close()
		return
	}
	body, ok := h.content.Get(string(fields[1]))
	if !ok {
		h.NotFound++
		_ = c.Send([]byte("HTTP/1.0 404 Not Found\r\n\r\n"))
		c.Close()
		return
	}
	h.Requests++
	// Header and body go out as one write: the send queue copies each
	// once, into one chunk, and segments them as if they were one slice.
	var buf [64]byte
	head := append(buf[:0], "HTTP/1.0 200 OK\r\nContent-Length: "...)
	head = strconv.AppendInt(head, int64(len(body)), 10)
	head = append(head, headerEnd...)
	_ = c.Send(head, body)
	c.Close()
}

// maxReserve bounds how much of a response HTTPGet reserves up front from
// its Content-Length; a larger body grows as it arrives.
const maxReserve = 1 << 20

// HTTPGet performs one HTTP transaction from this stack to server:port,
// invoking done with the response body when the transfer completes (the
// server closing the connection ends the body).
func HTTPGet(stack *Stack, server IPAddr, port uint16, path string, cost DeliveryCost, done func(status string, body []byte)) error {
	conn, err := stack.TCP().Connect(server, port, cost)
	if err != nil {
		return err
	}
	var resp []byte
	finished := false
	conn.OnConnect = func(c *Conn) {
		_ = c.Send([]byte("GET " + path + " HTTP/1.0\r\n\r\n"))
	}
	sized := false
	conn.OnData = func(c *Conn, data []byte) {
		if !sized {
			// Once the header is in, size resp for the whole response —
			// before the segment that completes the header is copied, so
			// a header in the first segment costs no regrowth at all.
			head := data
			if len(resp) > 0 {
				resp = append(resp, data...)
				head, data = resp, nil
			}
			if i := bytes.Index(head, headerEnd); i >= 0 {
				sized = true
				if n, ok := contentLength(head[:i]); ok {
					if extra := i + len(headerEnd) + min(n, maxReserve) - len(resp); extra > 0 {
						resp = slices.Grow(resp, extra)
					}
				}
			}
		}
		resp = append(resp, data...)
	}
	conn.OnClose = func(c *Conn) {
		if finished {
			return
		}
		finished = true
		c.Close() // complete our half of the teardown
		if done == nil {
			return
		}
		// body is a subslice of resp, which nothing else holds: no copy.
		headers, body, found := bytes.Cut(resp, []byte("\r\n\r\n"))
		status, _, _ := bytes.Cut(headers, []byte("\r\n"))
		if !found {
			done(string(status), nil)
			return
		}
		done(string(status), body)
	}
	return nil
}

// contentLength returns the Content-Length value in an HTTP header block.
func contentLength(header []byte) (int, bool) {
	const name = "content-length:"
	for len(header) > 0 {
		var line []byte
		line, header, _ = bytes.Cut(header, crlf)
		if len(line) > len(name) && bytes.EqualFold(line[:len(name)], []byte(name)) {
			n, err := strconv.Atoi(string(bytes.TrimSpace(line[len(name):])))
			return n, err == nil && n >= 0
		}
	}
	return 0, false
}
