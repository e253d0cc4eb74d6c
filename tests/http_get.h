#ifndef TARPIT_TESTS_HTTP_GET_H_
#define TARPIT_TESTS_HTTP_GET_H_

// One HTTP/1.1 GET against a server's /metrics port, for the net
// suites: sends the request and returns everything read until the
// server closes or 5 s pass with nothing to read.

#include <poll.h>
#include <sys/socket.h>

#include <cstdint>
#include <string>

#include "net/client.h"

namespace tarpit {

inline std::string HttpGet(uint16_t port, const std::string& path) {
  net::FrameClient http;
  if (!http.Connect("127.0.0.1", port).ok()) return "";
  if (!http.SendRaw("GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n").ok()) {
    return "";
  }
  std::string body;
  char chunk[4096];
  while (true) {
    pollfd pfd{http.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    const ssize_t n = ::recv(http.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    body.append(chunk, static_cast<size_t>(n));
  }
  return body;
}

}  // namespace tarpit

#endif  // TARPIT_TESTS_HTTP_GET_H_
