// Package netsim simulates the network between OTT apps and their backends
// at the message layer, with just enough TLS semantics to reproduce the
// paper's methodology: every host presents a certificate fingerprint, apps
// pin the expected fingerprints, and a Burp-style interceptor terminates
// connections with its own certificate — which breaks pinned apps until a
// Frida-style "SSL re-pinning" hook disables the check, after which the
// interceptor records every plaintext exchange.
//
// Real TLS handshakes are deliberately not simulated (see DESIGN.md): the
// study only needs the pin-check/bypass/record behaviour.
package netsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by clients.
var (
	// ErrUnknownHost is returned for unregistered hosts.
	ErrUnknownHost = errors.New("netsim: unknown host")
	// ErrPinMismatch is returned when the presented certificate does not
	// match the app's pinned fingerprint.
	ErrPinMismatch = errors.New("netsim: certificate pin mismatch")
)

// Request is one application-layer message to a host.
type Request struct {
	Host string
	Path string
	Body []byte
}

// Response is the host's reply.
type Response struct {
	Status int
	Body   []byte
}

// Handler serves requests for one host.
type Handler func(req Request) (Response, error)

// RetryObserver receives one notification per failed transient connection
// attempt that a client's retry layer observed: the unreachable host, the
// 1-based attempt number, and the transport error. Observers run inline on
// the requesting goroutine and must be safe for concurrent use.
type RetryObserver func(host string, attempt int, err error)

// Network is the set of reachable hosts.
type Network struct {
	mu      sync.RWMutex
	hosts   map[string]hostEntry
	faults  *FaultPlan
	onRetry RetryObserver
}

type hostEntry struct {
	handler Handler
	cert    string
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{hosts: make(map[string]hostEntry)}
}

// RegisterHost attaches a handler to a hostname and mints its certificate
// fingerprint (derived from the hostname, so pins are stable).
func (n *Network) RegisterHost(host string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[host] = hostEntry{handler: h, cert: CertFingerprint(host)}
}

// CertFingerprint derives the genuine certificate fingerprint of a host.
func CertFingerprint(host string) string {
	sum := sha256.Sum256([]byte("cert-for-" + host))
	return hex.EncodeToString(sum[:8])
}

// lookup returns the host entry.
func (n *Network) lookup(host string) (hostEntry, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e, ok := n.hosts[host]
	return e, ok
}

// SetFaultPlan installs (or, with nil, removes) the network's fault
// layer. Every client connection attempt consults the plan.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = p
}

// FaultPlan returns the installed fault layer, nil when the network is
// perfect.
func (n *Network) FaultPlan() *FaultPlan {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.faults
}

// SetRetryObserver installs (or, with nil, removes) the network-wide
// observer for transient attempt failures. Every client on the network
// reports through it, so one sink sees the whole study's masked faults.
// To feed several consumers — an event log and a metrics exporter, say —
// combine them with CombineRetryObservers.
func (n *Network) SetRetryObserver(obs RetryObserver) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onRetry = obs
}

// RetryObserver returns the currently installed observer, nil when none
// is. Layers that add their own observation compose with whatever is
// already wired: CombineRetryObservers(n.RetryObserver(), extra).
func (n *Network) RetryObserver() RetryObserver {
	return n.retryObserver()
}

// CombineRetryObservers fans each retry notification out to every
// non-nil observer, in argument order. Nil observers are skipped; with
// none left it returns nil, so the result is always installable as-is.
func CombineRetryObservers(observers ...RetryObserver) RetryObserver {
	live := make([]RetryObserver, 0, len(observers))
	for _, obs := range observers {
		if obs != nil {
			live = append(live, obs)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(host string, attempt int, err error) {
		for _, obs := range live {
			obs(host, attempt, err)
		}
	}
}

// retryObserver returns the installed observer, nil when absent.
func (n *Network) retryObserver() RetryObserver {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.onRetry
}

// Exchange is one recorded plaintext request/response pair.
type Exchange struct {
	Request  Request
	Response Response
	Err      error
}

// Interceptor is the Burp-style proxy: it terminates connections with its
// own certificate and records plaintext traffic.
type Interceptor struct {
	mu       sync.Mutex
	cert     string
	captured []Exchange
}

// NewInterceptor mints a MITM proxy with its own certificate.
func NewInterceptor() *Interceptor {
	return &Interceptor{cert: CertFingerprint("mitm-proxy")}
}

// Captured returns a copy of every recorded exchange.
func (i *Interceptor) Captured() []Exchange {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]Exchange, len(i.captured))
	copy(out, i.captured)
	return out
}

// record stores one exchange.
func (i *Interceptor) record(ex Exchange) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.captured = append(i.captured, ex)
}

// Client is one app's network stack: pins per host, an optional MITM in
// the path, and the patchable pin check.
type Client struct {
	network *Network

	mu             sync.Mutex
	pins           map[string]string
	mitm           *Interceptor
	pinningEnabled bool
	retry          *RetryPolicy
}

// NewClient builds an app network client over the network. Pinning starts
// enabled with no pins; call Pin per backend host.
func NewClient(network *Network) *Client {
	return &Client{
		network:        network,
		pins:           make(map[string]string),
		pinningEnabled: true,
	}
}

// Pin records the expected certificate for a host (what the app ships).
func (c *Client) Pin(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pins[host] = CertFingerprint(host)
}

// InstallMITM routes the client's traffic through an interceptor — the
// device-level proxy configuration step of the paper's setup.
func (c *Client) InstallMITM(i *Interceptor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mitm = i
}

// DisablePinning is the Frida "SSL re-pinning" patch: the app's certificate
// check becomes a no-op.
func (c *Client) DisablePinning() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pinningEnabled = false
}

// PinningEnabled reports whether the pin check is active.
func (c *Client) PinningEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pinningEnabled
}

// SetRetryPolicy installs (or, with nil, removes) the client's retry
// layer: Do and DoCtx then transparently retry transient transport
// faults. Deterministic failures (pin mismatch, unknown host, handler
// errors) are never retried.
func (c *Client) SetRetryPolicy(p *RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = p
}

// Do performs one exchange, enforcing the pin against whatever certificate
// the connection presents (the host's, or the interceptor's when a MITM is
// in the path). With a retry policy installed, transient injected faults
// are retried transparently.
func (c *Client) Do(req Request) (Response, error) {
	return c.DoCtx(context.Background(), req)
}

// DoCtx is Do with a context bounding the whole exchange including retry
// backoff: cancellation or a deadline stops the retry loop.
func (c *Client) DoCtx(ctx context.Context, req Request) (Response, error) {
	c.mu.Lock()
	policy := c.retry
	c.mu.Unlock()
	if policy == nil {
		return c.attempt(ctx, req)
	}
	attempt := 0
	return policy.Do(ctx, func() (Response, error) {
		attempt++
		resp, err := c.attempt(ctx, req)
		if err != nil && IsTransient(err) {
			if obs := c.network.retryObserver(); obs != nil {
				obs(req.Host, attempt, err)
			}
		}
		return resp, err
	})
}

// attempt is one connection attempt: fault layer, pin check, handler.
func (c *Client) attempt(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	entry, ok := c.network.lookup(req.Host)
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownHost, req.Host)
	}

	c.mu.Lock()
	mitm := c.mitm
	pinning := c.pinningEnabled
	pin, pinned := c.pins[req.Host]
	c.mu.Unlock()

	// Connection-level faults strike before any certificate is presented;
	// a flapped handshake dies before the pin check could run.
	busy := false
	if plan := c.network.FaultPlan(); plan != nil {
		kind, latency := plan.decide(req.Host)
		if latency > 0 {
			if err := plan.sleep(ctx, latency); err != nil {
				return Response{}, err
			}
		}
		switch kind {
		case FaultDrop:
			return Response{}, fmt.Errorf("%w: host %q", ErrConnDropped, req.Host)
		case FaultFlap:
			return Response{}, fmt.Errorf("%w: host %q", ErrHandshakeFlap, req.Host)
		case FaultBusy:
			busy = true
		}
	}

	presented := entry.cert
	if mitm != nil {
		presented = mitm.cert
	}
	if pinning && pinned && presented != pin {
		return Response{}, fmt.Errorf("%w: host %q presented %s, pinned %s",
			ErrPinMismatch, req.Host, presented, pin)
	}

	// An injected 503 is an application-layer reply over an established
	// (and pin-checked) connection, so an interceptor in the path sees it.
	if busy {
		if mitm != nil {
			mitm.record(Exchange{Request: req, Response: Response{Status: 503}, Err: ErrServerBusy})
		}
		return Response{}, fmt.Errorf("%w: host %q", ErrServerBusy, req.Host)
	}

	resp, err := entry.handler(req)
	if mitm != nil {
		mitm.record(Exchange{Request: req, Response: resp, Err: err})
	}
	if err != nil {
		return Response{}, err
	}
	return resp, nil
}
