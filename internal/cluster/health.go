package cluster

import (
	"fmt"
	"net/http"
	"time"
)

// probeTimeout bounds one node's health probe. It does not shrink with
// ProbeInterval: a short interval asks for frequent probes, not for fast
// answers, and a healthy node that answers more slowly than the interval
// must stay in rotation.
const probeTimeout = time.Second

// ProbeOnce probes every tracked node's health right now and updates the
// router's routing view: a node with an HTTP address is healthy iff
// GET /readyz answers 200 within probeTimeout (a draining server answers
// 503 and is pulled from rotation before its listeners close — see
// server.BeginDrain); nodes without one fall back to a TCP dial probe. The
// probe loop calls this every ProbeInterval; tests call it directly to
// advance health deterministically.
func (r *Router) ProbeOnce() {
	states := r.allStates()
	client := &http.Client{Timeout: probeTimeout}
	for _, st := range states {
		err := probeNode(client, st.node, probeTimeout)
		up := err == nil
		if !up {
			st.probeErrs.Add(1)
		}
		was := st.up.Swap(up)
		if was != up {
			if up {
				r.logf("cluster: node %s back in rotation", st.node.Name)
			} else {
				r.logf("cluster: node %s failed probe: %v", st.node.Name, err)
			}
		}
	}
}

// probeNode checks one node: /readyz over HTTP when possible, TCP dial
// otherwise.
func probeNode(client *http.Client, n Node, timeout time.Duration) error {
	if n.HTTPAddr == "" {
		return dialProbe(n.TCPAddr, timeout)
	}
	resp, err := client.Get("http://" + n.HTTPAddr + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}
