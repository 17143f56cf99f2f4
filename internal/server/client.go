package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// Client talks to a hennserve instance. It is safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	admin string
}

// NewClient wraps the base URL (e.g. "http://127.0.0.1:8555"). A nil
// http.Client uses http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// WithAdminToken returns a copy of the client that authenticates admin
// mutations (Deploy, Supersede, Retire) with the bearer token; servers
// started with -admin-token reject them otherwise.
func (c *Client) WithAdminToken(token string) *Client {
	cc := *c
	cc.admin = token
	return &cc
}

// send issues one request, a non-nil body as application/octet-stream and
// the admin mutations with the bearer token when one is configured, and
// returns the response if its status is want. Any other status is the
// server's error; that response comes back too, body closed, for its headers.
func (c *Client) send(ctx context.Context, method, path string, body []byte, want int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if c.admin != "" && method != http.MethodGet && strings.HasPrefix(path, "/v1/models") {
		req.Header.Set("Authorization", "Bearer "+c.admin)
	}
	resp, err := c.hc.Do(req)
	if err == nil && resp.StatusCode != want {
		defer resp.Body.Close()
		err = apiError(resp)
	}
	return resp, err
}

// apiError surfaces the server's JSON error body.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (%s)", e.Error, resp.Status)
	}
	return fmt.Errorf("server: %s", resp.Status)
}

// getJSON fetches path and decodes the JSON response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.send(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s response: %w", path, err)
	}
	return nil
}

// Models fetches the full model catalog, sorted by name.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var infos []ModelInfo
	if err := c.getJSON(ctx, "/v1/models", &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// ModelNamed fetches one model's description by registry name.
func (c *Client) ModelNamed(ctx context.Context, name string) (*ModelInfo, error) {
	info := new(ModelInfo)
	if err := c.getJSON(ctx, "/v1/models/"+url.PathEscape(name), info); err != nil {
		return nil, err
	}
	return info, nil
}

// Stats fetches the server's scheduler and per-model counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	st := new(Stats)
	if err := c.getJSON(ctx, "/v1/stats", st); err != nil {
		return nil, err
	}
	return st, nil
}

// Traces fetches the server's retained request traces, newest first. Each
// snapshot carries the request's spans (queue wait, unit) and the
// per-stage CKKS timing breakdown aggregated by the unit.
func (c *Client) Traces(ctx context.Context) ([]telemetry.TraceSnapshot, error) {
	var snaps []telemetry.TraceSnapshot
	if err := c.getJSON(ctx, "/v1/traces", &snaps); err != nil {
		return nil, err
	}
	return snaps, nil
}

// Trace fetches one retained trace by the id the X-Henn-Trace response
// header carried (see Session.InferCiphertextTraced).
func (c *Client) Trace(ctx context.Context, id string) (*telemetry.TraceSnapshot, error) {
	snap := new(telemetry.TraceSnapshot)
	if err := c.getJSON(ctx, "/v1/traces/"+url.PathEscape(id), snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// Metrics fetches the server's Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// Deploy hot-deploys a model (admin): the bundle crosses the wire in the
// registry binary format and is serving sessions when the call returns, as
// the next version of its name. Deploying over a live name fails 409 — use
// Supersede to roll the version.
func (c *Client) Deploy(ctx context.Context, m *registry.Model) (*ModelInfo, error) {
	return c.post(ctx, "/v1/models", m)
}

// Supersede publishes the model as the next version of its name (admin):
// new registrations bind the new version while live older versions drain —
// their existing sessions keep serving until they disconnect.
func (c *Client) Supersede(ctx context.Context, m *registry.Model) (*ModelInfo, error) {
	return c.post(ctx, "/v1/models?supersede=true", m)
}

func (c *Client) post(ctx context.Context, path string, m *registry.Model) (*ModelInfo, error) {
	data, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	resp, err := c.send(ctx, http.MethodPost, path, data, http.StatusCreated)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	info := new(ModelInfo)
	if err := json.NewDecoder(resp.Body).Decode(info); err != nil {
		return nil, fmt.Errorf("decoding deploy response: %w", err)
	}
	return info, nil
}

// Retire removes a model from the server's catalog (admin): a bare name
// retires every version, "name@N" just one. Bound sessions' pending
// requests fail 410 and each stack is freed once drained.
func (c *Client) Retire(ctx context.Context, name string) error {
	resp, err := c.send(ctx, http.MethodDelete, "/v1/models/"+url.PathEscape(name), nil, http.StatusNoContent)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Session is a registered client session. The secret and public keys never
// leave it: encryption and decryption happen locally, only ciphertexts and
// evaluation keys cross the wire. Safe for concurrent Infer calls.
type Session struct {
	c      *Client
	id     string
	info   *ModelInfo
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
}

// NewSession registers against the server's sole live model: it lists the
// catalog, generates a key set under that model's prescribed parameters and
// uploads the evaluation keys (the public key, like the secret key, stays
// with the session). Draining versions do not count, so mid-rollout the new
// version is the sole live one. The seed drives the deterministic key
// generation (each client should pick its own). On a multi-model server use
// NewSessionFor.
func (c *Client) NewSession(ctx context.Context, seed int64) (*Session, error) {
	infos, err := c.Models(ctx)
	if err != nil {
		return nil, err
	}
	var live []ModelInfo
	for _, info := range infos {
		if !info.Draining {
			live = append(live, info)
		}
	}
	switch len(live) {
	case 0:
		return nil, fmt.Errorf("server: no models deployed")
	case 1:
		return c.newSession(ctx, &live[0], seed)
	default:
		return nil, fmt.Errorf("server: %d models deployed; use NewSessionFor", len(live))
	}
}

// NewSessionFor registers a session bound to the named model.
func (c *Client) NewSessionFor(ctx context.Context, model string, seed int64) (*Session, error) {
	if model == "" {
		return nil, fmt.Errorf("server: NewSessionFor needs a model name")
	}
	info, err := c.ModelNamed(ctx, model)
	if err != nil {
		return nil, err
	}
	return c.newSession(ctx, info, seed)
}

// newSession generates keys for info's model and registers them, pinned to
// the exact version info describes.
func (c *Client) newSession(ctx context.Context, info *ModelInfo, seed int64) (*Session, error) {
	var lit ckks.ParametersLiteral
	if err := lit.UnmarshalBinary(info.Params); err != nil {
		return nil, fmt.Errorf("prescribed parameters: %w", err)
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, fmt.Errorf("compiling prescribed parameters: %w", err)
	}

	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rks := kg.GenRotationKeys(sk, info.Rotations, false)

	// Pin the exact version the info (and the keys derived from it)
	// describe: a supersede landing between the info fetch and this
	// registration must 410 cleanly instead of silently binding the new
	// version under the old version's parameters. The keys marshal straight
	// into the frame.
	payload, err := marshalRegistration(info.Ref(), info.Params, params, rlk, rks)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(ctx, http.MethodPost, "/v1/sessions", payload, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var reg registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return nil, fmt.Errorf("decoding registration: %w", err)
	}
	return &Session{
		c:      c,
		id:     reg.SessionID,
		info:   info,
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, pk, seed^0x7e57),
		decr:   ckks.NewDecryptor(params, sk),
	}, nil
}

// ID returns the server-assigned session id.
func (s *Session) ID() string { return s.id }

// Close deletes the session server-side, releasing its key material and
// failing its queued requests. The session's local keys stay usable (e.g.
// to decrypt responses already in flight).
func (s *Session) Close(ctx context.Context) error {
	resp, err := s.c.send(ctx, http.MethodDelete, "/v1/sessions/"+s.id, nil, http.StatusNoContent)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Model returns the info the session was built against.
func (s *Session) Model() *ModelInfo { return s.info }

// InferCiphertext round-trips one already-encrypted input through the
// server and returns the encrypted result.
func (s *Session) InferCiphertext(ctx context.Context, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	out, _, err := s.InferCiphertextTraced(ctx, ct)
	return out, err
}

// InferCiphertextTraced is InferCiphertext plus the server-assigned trace
// id from the X-Henn-Trace response header; fetch the stage-level breakdown
// with Client.Trace once the response has been written (the server retains
// a bounded ring of completed traces).
func (s *Session) InferCiphertextTraced(ctx context.Context, ct *ckks.Ciphertext) (*ckks.Ciphertext, string, error) {
	data, err := ct.MarshalBinary()
	if err != nil {
		return nil, "", err
	}
	resp, err := s.c.send(ctx, http.MethodPost, "/v1/sessions/"+s.id+"/infer", data, http.StatusOK)
	if resp == nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	traceID := resp.Header.Get("X-Henn-Trace")
	if err != nil {
		return nil, traceID, err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, traceID, err
	}
	out := new(ckks.Ciphertext)
	if err := out.UnmarshalBinary(body); err != nil {
		return nil, traceID, fmt.Errorf("decoding result ciphertext: %w", err)
	}
	return out, traceID, nil
}

// Infer encrypts the input vector, runs it through the server and returns
// the decrypted output logits (OutputDim values).
func (s *Session) Infer(ctx context.Context, x []float64) ([]float64, error) {
	if len(x) > s.info.InputDim {
		return nil, fmt.Errorf("input has %d features, model takes %d", len(x), s.info.InputDim)
	}
	vec := make([]float64, s.params.Slots())
	copy(vec, x)
	pt, err := s.enc.EncodeReals(vec, s.params.MaxLevel(), s.params.DefaultScale())
	if err != nil {
		return nil, err
	}
	out, err := s.InferCiphertext(ctx, s.encr.Encrypt(pt))
	if err != nil {
		return nil, err
	}
	logits := s.enc.DecodeReals(s.decr.Decrypt(out))
	return logits[:s.info.OutputDim], nil
}
