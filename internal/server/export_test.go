package server

import (
	"bufio"
	"bytes"
)

// ServeStream drives the frame codec over an in-memory request stream
// exactly as a connection handler drives it — one op byte, then the
// codec consumes the rest of the frame — until the codec drops the
// connection or the stream runs dry, and returns the response bytes.
func ServeStream(h Handler, stream []byte) []byte {
	var out bytes.Buffer
	c := &frameCodec{br: bufio.NewReader(bytes.NewReader(stream)), bw: bufio.NewWriter(&out), h: h}
	for {
		op, err := c.br.ReadByte()
		if err != nil || !c.next(op) {
			break
		}
	}
	_ = c.bw.Flush()
	return out.Bytes()
}

// NodeHandler returns the frame handler a node serves its TCP listener
// with.
func NodeHandler(s *Server) Handler { return nodeHandler{s} }
