/**
 * @file
 * HTTP/1.1 wire handling for the serve daemon: one accepted socket on
 * one connection worker, a hand-rolled request parser and response
 * writer.
 *
 * The daemon speaks just enough HTTP for JSON tooling and `curl`:
 * request line + headers + optional Content-Length body in, status
 * line + headers + body out, `Connection: close` on every response
 * (one request per connection keeps the concurrency model trivial —
 * a worker holds a socket for one request's lifetime, and the drain
 * path only has to wait for workers, never for idle keep-alive
 * sockets).  Parsing is incremental over a byte buffer so it can be
 * unit-tested without sockets, with hard caps on header and body
 * size so a hostile client cannot balloon the daemon.
 */

#ifndef CELLBW_SERVE_CONNECTION_HH
#define CELLBW_SERVE_CONNECTION_HH

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cellbw::serve
{

struct HttpRequest
{
    std::string method;     ///< "GET", "POST", ... (as sent)
    std::string target;     ///< request target, e.g. "/jobs/j1"
    std::string version;    ///< "HTTP/1.1"
    /** Header fields; names lower-cased, values trimmed. */
    std::map<std::string, std::string> headers;
    std::string body;

    /** Header value or @p def. */
    std::string header(const std::string &name,
                       const std::string &def = "") const;
};

struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
    /** Extra response headers (name, value). */
    std::vector<std::pair<std::string, std::string>> headers;
};

enum class ParseStatus
{
    NeedMore,   ///< incomplete; feed more bytes
    Ok,         ///< one request parsed; @p consumed bytes used
    Bad,        ///< malformed request line/headers/length
    TooLarge,   ///< header block or body exceeds the cap
};

/** Header block cap (request line + headers). */
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
/** Body cap. */
constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

/**
 * Try to parse one complete request from the front of @p data.
 * On Ok, @p out is filled and @p consumed says how many bytes the
 * request used.  NeedMore leaves both untouched.
 */
ParseStatus parseHttpRequest(const std::string &data, HttpRequest &out,
                             std::size_t &consumed);

/** Render a full response (status line, headers, body). */
std::string renderHttpResponse(const HttpResponse &resp);

/** Standard reason phrase for @p status ("OK", "Not Found", ...). */
const char *statusText(int status);

class Server;

/**
 * Serve one accepted socket: read a request (bounded, within
 * @p readDeadline of the call, else answer 408), route it through
 * @p server, write the response.  The caller closes @p fd.
 */
void serveConnection(int fd, const std::string &peer, Server &server,
                     std::chrono::milliseconds readDeadline =
                         std::chrono::seconds(30));

} // namespace cellbw::serve

#endif // CELLBW_SERVE_CONNECTION_HH
