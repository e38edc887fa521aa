package api

import (
	"encoding/json"
	"fmt"
)

// MaxGossipMembers bounds the member count of one gossip exchange. A
// fleet is tens of nodes, not thousands; a table past this bound is a
// protocol bug or an attack and is refused before it can bloat the
// receiver's membership state.
const MaxGossipMembers = 1024

// MaxGossipIDBytes bounds a single member ID (an advertised base URL).
const MaxGossipIDBytes = 512

// Gossip member states, as they appear on the wire.
const (
	GossipAlive   = "alive"
	GossipSuspect = "suspect"
	GossipDead    = "dead"
)

// Gossip member roles. Routers participate in membership (so workers
// learn of them and they learn of workers) but are excluded from the
// rendezvous ring.
const (
	RoleWorker = "worker"
	RoleRouter = "router"
)

// GossipMember is one node's view of one fleet member: who it is (the
// advertised base URL doubles as the identity), what it does, how fresh
// the claim is (incarnation — only the member itself ever increments it,
// which is what lets a restarted or wrongly-suspected node refute stale
// death claims), and the claimed liveness state.
type GossipMember struct {
	ID          string `json:"id"`
	Role        string `json:"role,omitempty"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
}

// GossipRequest is the POST /v1/gossip body: the sender's full
// membership table plus its own identity. Receiving one is itself
// liveness evidence for the sender.
type GossipRequest struct {
	From    string         `json:"from"`
	Members []GossipMember `json:"members"`
	// PingTarget, when set, makes this exchange a SWIM-style ping-req:
	// the sender cannot reach PingTarget directly and asks the receiver
	// to probe it before the sender marks it suspect. The receiver
	// answers with PingOK on the response.
	PingTarget string `json:"ping_target,omitempty"`
}

// GossipResponse answers a gossip exchange with the receiver's (merged)
// table, so one round trip synchronizes both directions.
type GossipResponse struct {
	From    string         `json:"from"`
	Members []GossipMember `json:"members"`
	// PingOK reports the result of a ping-req: true when the receiver
	// reached PingTarget directly during this exchange.
	PingOK bool `json:"ping_ok,omitempty"`
}

// ParseGossipRequest decodes and validates a /v1/gossip body. Like
// ParseAnalyzeRequest it is the single governance point for the
// endpoint: bounded member count, bounded IDs, known states and roles —
// hostile input never panics and never smuggles an unbounded or
// malformed table into a node's membership state.
func ParseGossipRequest(data []byte) (*GossipRequest, error) {
	var req GossipRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("invalid gossip body: %w", err)
	}
	if req.From == "" {
		return nil, fmt.Errorf("missing required field: from")
	}
	if len(req.From) > MaxGossipIDBytes {
		return nil, fmt.Errorf("from exceeds the %d-byte bound", MaxGossipIDBytes)
	}
	if len(req.PingTarget) > MaxGossipIDBytes {
		return nil, fmt.Errorf("ping_target exceeds the %d-byte bound", MaxGossipIDBytes)
	}
	if err := ValidateGossipMembers(req.Members); err != nil {
		return nil, err
	}
	return &req, nil
}

// ParseGossipResponse decodes and validates the reply half of an
// exchange under the same bounds as the request.
func ParseGossipResponse(data []byte) (*GossipResponse, error) {
	var resp GossipResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("invalid gossip response: %w", err)
	}
	if err := ValidateGossipMembers(resp.Members); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ValidateGossipMembers enforces the per-member invariants shared by
// both directions of the exchange.
func ValidateGossipMembers(members []GossipMember) error {
	if len(members) > MaxGossipMembers {
		return fmt.Errorf("table of %d members exceeds the %d-member bound", len(members), MaxGossipMembers)
	}
	for i, m := range members {
		if m.ID == "" {
			return fmt.Errorf("member %d: missing required field: id", i)
		}
		if len(m.ID) > MaxGossipIDBytes {
			return fmt.Errorf("member %d: id exceeds the %d-byte bound", i, MaxGossipIDBytes)
		}
		switch m.State {
		case GossipAlive, GossipSuspect, GossipDead:
		default:
			return fmt.Errorf("member %d: unknown state %q", i, m.State)
		}
		switch m.Role {
		case "", RoleWorker, RoleRouter:
		default:
			return fmt.Errorf("member %d: unknown role %q", i, m.Role)
		}
	}
	return nil
}
