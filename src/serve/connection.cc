#include "serve/connection.hh"

#include <cctype>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>

#include "serve/server.hh"
#include "util/strings.hh"

namespace cellbw::serve
{

std::string
HttpRequest::header(const std::string &name, const std::string &def) const
{
    auto it = headers.find(util::toLower(name));
    return it == headers.end() ? def : it->second;
}

ParseStatus
parseHttpRequest(const std::string &data, HttpRequest &out,
                 std::size_t &consumed)
{
    const std::size_t headerEnd = data.find("\r\n\r\n");
    if (headerEnd == std::string::npos) {
        return data.size() > kMaxHeaderBytes ? ParseStatus::TooLarge
                                             : ParseStatus::NeedMore;
    }
    if (headerEnd > kMaxHeaderBytes)
        return ParseStatus::TooLarge;

    HttpRequest req;
    const std::string head = data.substr(0, headerEnd);
    const auto lines = util::split(head, '\n');
    if (lines.empty())
        return ParseStatus::Bad;

    // Request line: METHOD SP TARGET SP VERSION.
    {
        const std::string line = util::trim(lines[0]);
        const auto firstSp = line.find(' ');
        const auto lastSp = line.rfind(' ');
        if (firstSp == std::string::npos || lastSp == firstSp)
            return ParseStatus::Bad;
        req.method = line.substr(0, firstSp);
        req.target = util::trim(
            line.substr(firstSp + 1, lastSp - firstSp - 1));
        req.version = line.substr(lastSp + 1);
        if (req.method.empty() || req.target.empty() ||
            req.target[0] != '/' ||
            req.version.rfind("HTTP/1.", 0) != 0)
            return ParseStatus::Bad;
    }

    for (std::size_t i = 1; i < lines.size(); ++i) {
        const std::string line = util::trim(lines[i]);
        if (line.empty())
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos || colon == 0)
            return ParseStatus::Bad;
        req.headers[util::toLower(util::trim(line.substr(0, colon)))] =
            util::trim(line.substr(colon + 1));
    }

    std::size_t contentLength = 0;
    {
        const std::string cl = req.header("content-length", "0");
        try {
            contentLength =
                static_cast<std::size_t>(util::parseUint64(cl));
        } catch (const std::exception &) {
            return ParseStatus::Bad;
        }
    }
    if (contentLength > kMaxBodyBytes)
        return ParseStatus::TooLarge;

    const std::size_t bodyStart = headerEnd + 4;
    if (data.size() - bodyStart < contentLength)
        return ParseStatus::NeedMore;

    req.body = data.substr(bodyStart, contentLength);
    consumed = bodyStart + contentLength;
    out = std::move(req);
    return ParseStatus::Ok;
}

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default:  return "Status";
    }
}

std::string
renderHttpResponse(const HttpResponse &resp)
{
    std::string out = util::format("HTTP/1.1 %d %s\r\n", resp.status,
                                   statusText(resp.status));
    out += "Content-Type: " + resp.contentType + "\r\n";
    out += util::format("Content-Length: %zu\r\n", resp.body.size());
    for (const auto &h : resp.headers)
        out += h.first + ": " + h.second + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += resp.body;
    return out;
}

namespace
{

void
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return;         // client went away; nothing to salvage
        }
        off += static_cast<std::size_t>(n);
    }
}

void
sendError(int fd, int status, const std::string &message)
{
    HttpResponse resp;
    resp.status = status;
    resp.body = "{\"error\": \"" + message + "\"}\n";
    writeAll(fd, renderHttpResponse(resp));
}

} // namespace

void
serveConnection(int fd, const std::string &peer, Server &server,
                std::chrono::milliseconds readDeadline)
{
    // A stalled, dead or trickling client must not pin this worker
    // forever; runs themselves can take arbitrarily long, but *reading
    // the request* has one deadline, and each recv waits only for what
    // is left of it.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + readDeadline;

    std::string buf;
    HttpRequest req;
    std::size_t consumed = 0;
    for (;;) {
        const long long leftUs =
            std::chrono::duration_cast<std::chrono::microseconds>(
                deadline - Clock::now())
                .count();
        if (leftUs <= 0) {
            sendError(fd, 408, "request not received in time");
            return;
        }
        struct timeval tv;
        tv.tv_sec = static_cast<time_t>(leftUs / 1000000);
        tv.tv_usec = static_cast<suseconds_t>(leftUs % 1000000);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        char chunk[1 << 14];
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK))
            continue;       // the loop head answers a timeout
        if (n <= 0)
            return;         // EOF or error before a full request
        buf.append(chunk, static_cast<std::size_t>(n));
        const ParseStatus st = parseHttpRequest(buf, req, consumed);
        if (st == ParseStatus::NeedMore)
            continue;
        if (st == ParseStatus::Bad) {
            sendError(fd, 400, "malformed HTTP request");
            return;
        }
        if (st == ParseStatus::TooLarge) {
            sendError(fd, 413, "request too large");
            return;
        }
        break;              // Ok
    }

    const HttpResponse resp = server.route(req, peer);
    writeAll(fd, renderHttpResponse(resp));
}

} // namespace cellbw::serve
